package main

import (
	"testing"

	"fuzzyknn"
	"fuzzyknn/internal/server"
)

// The oracle stops scanning early and runs Naive RKNN on a subset. Both
// shortcuts must leave the answer identical to the product's exhaustive
// baselines, or the benchmark would be checking answers against itself.
func TestOracleMatchesExhaustiveBaselines(t *testing.T) {
	w, _ := findWorkload("mixed_id_hot_sharded")
	d, err := generateData(w, 400, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fuzzyknn.NewIndex(d.base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 12; qi++ {
		q := d.base[qi*31]
		scan, _, err := ix.LinearScanAKNN(q, 20, aknnAlpha)
		if err != nil {
			t.Fatal(err)
		}
		got := exactKNN(q, d.base, 20, aknnAlpha)
		if len(got) != len(scan) {
			t.Fatalf("query %d: %d neighbours, linear scan has %d", qi, len(got), len(scan))
		}
		for i := range scan {
			if got[i].id != scan[i].ID || !near(got[i].dist, scan[i].Dist) {
				t.Fatalf("query %d neighbour %d: oracle %+v, linear scan %+v", qi, i, got[i], scan[i])
			}
		}

		inRange, _, err := ix.RangeSearch(q, rangeAlpha, rangeRadius)
		if err != nil {
			t.Fatal(err)
		}
		gotRange := exactRange(q, d.base, rangeAlpha, rangeRadius)
		if len(gotRange) != len(inRange) {
			t.Fatalf("query %d: range oracle %d objects, product %d", qi, len(gotRange), len(inRange))
		}
		for i := range inRange {
			if gotRange[i].id != inRange[i].ID {
				t.Fatalf("query %d range result %d: oracle %d, product %d", qi, i, gotRange[i].id, inRange[i].ID)
			}
		}
	}
	for qi := 0; qi < 3; qi++ {
		q := d.base[qi*97]
		full, _, err := ix.RKNN(q, rknnK, rknnStart, rknnEnd, fuzzyknn.Naive)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := naiveRKNN(q, d.base, rknnK)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) != len(sub) {
			t.Fatalf("rknn query %d: subset gives %d objects, full Naive %d", qi, len(sub), len(full))
		}
		for i := range full {
			if full[i].ID != sub[i].ID || full[i].Qualifying.String() != sub[i].Qualifying.String() {
				t.Fatalf("rknn query %d result %d: subset %v %v, full %v %v", qi, i,
					sub[i].ID, sub[i].Qualifying, full[i].ID, full[i].Qualifying)
			}
		}
	}
}

// A wrong answer must be caught: drop, reorder or perturb a correct one.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	w, _ := findWorkload("aknn_id_paged_cold")
	d, err := generateData(w, 300, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(w, d)
	q := d.base[17]
	var resp server.QueryResponse
	for _, n := range exactKNN(q, d.base, 5, aknnAlpha) {
		resp.Results = append(resp.Results, server.ResultJSON{ID: n.id, Dist: n.dist, Exact: true, Lower: n.dist, Upper: n.dist})
	}
	r := &request{kind: kAKNN, query: q, k: 5}
	if err := c.check(r, mustJSON(resp)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	mutate := map[string]func(*server.QueryResponse){
		"wrong distance": func(r *server.QueryResponse) { r.Results[2].Dist += 1e-6 },
		"swapped order":  func(r *server.QueryResponse) { r.Results[1], r.Results[2] = r.Results[2], r.Results[1] },
		"wrong object":   func(r *server.QueryResponse) { r.Results[4].ID = 250 },
		"missing result": func(r *server.QueryResponse) { r.Results = r.Results[:4] },
	}
	for name, f := range mutate {
		bad := server.QueryResponse{Results: append([]server.ResultJSON(nil), resp.Results...)}
		f(&bad)
		if err := c.check(r, mustJSON(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
