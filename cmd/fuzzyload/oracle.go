package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"fuzzyknn"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
	"fuzzyknn/internal/server"
)

// The oracle answers queries on the harness's copy of the data without the
// product's index, bounds or kd-trees: exact α-distances come from
// fuzzy.AlphaDistBrute (all point pairs), and the only shortcut is that an
// α-distance is never smaller than the gap between the two support
// rectangles, which lets a scan stop early. A full LinearScanAKNN over 20000
// objects takes 0.6 s a query on this box; this takes milliseconds and
// returns the same answer (the tests hold it against LinearScanAKNN).

const distTol = 1e-9

type neighbour struct {
	id   uint64
	dist float64
}

// byGap orders the candidate objects by the gap between their support
// rectangle and the query's.
type byGap struct {
	objs []*fuzzy.Object
	gaps []float64
}

func gapOrder(q *fuzzy.Object, objs []*fuzzy.Object) byGap {
	g := byGap{objs: append([]*fuzzy.Object(nil), objs...), gaps: make([]float64, len(objs))}
	qr := q.SupportMBR()
	for i, o := range g.objs {
		g.gaps[i] = geom.MinDist(qr, o.SupportMBR())
	}
	sort.Sort(g)
	return g
}

func (g byGap) Len() int           { return len(g.objs) }
func (g byGap) Less(i, j int) bool { return g.gaps[i] < g.gaps[j] }
func (g byGap) Swap(i, j int) {
	g.objs[i], g.objs[j] = g.objs[j], g.objs[i]
	g.gaps[i], g.gaps[j] = g.gaps[j], g.gaps[i]
}

func sortNeighbours(ns []neighbour) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].dist != ns[j].dist {
			return ns[i].dist < ns[j].dist
		}
		return ns[i].id < ns[j].id
	})
}

// exactKNN returns the k objects nearest to q at alpha, ascending by
// (distance, id).
func exactKNN(q *fuzzy.Object, objs []*fuzzy.Object, k int, alpha float64) []neighbour {
	g := gapOrder(q, objs)
	var best []neighbour
	for i, o := range g.objs {
		if len(best) == k && g.gaps[i] > best[k-1].dist {
			break
		}
		best = append(best, neighbour{o.ID(), fuzzy.AlphaDistBrute(o, q, alpha)})
		sortNeighbours(best)
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// exactRange returns every object within radius of q at alpha, ascending by
// (distance, id).
func exactRange(q *fuzzy.Object, objs []*fuzzy.Object, alpha, radius float64) []neighbour {
	var out []neighbour
	qr := q.SupportMBR()
	for _, o := range objs {
		if geom.MinDist(qr, o.SupportMBR()) > radius {
			continue
		}
		if d := fuzzy.AlphaDistBrute(o, q, alpha); d <= radius {
			out = append(out, neighbour{o.ID(), d})
		}
	}
	sortNeighbours(out)
	return out
}

// naiveRKNN answers the range kNN query with the product's Naive algorithm
// (one exact kNN per critical threshold) over the only objects that can
// matter. α-cuts shrink as α grows, so distances grow with α: an object
// whose support rectangle is further from q than the k-th neighbour at
// alphaEnd is outside the kNN set at every α of the range, and cannot push
// another object out of it either. Dropping those objects leaves Naive's
// answer unchanged and makes it affordable.
func naiveRKNN(q *fuzzy.Object, objs []*fuzzy.Object, k int) ([]fuzzyknn.RangedResult, error) {
	far := exactKNN(q, objs, k, rknnEnd)
	reach := math.Inf(1)
	if len(far) == k {
		reach = far[k-1].dist
	}
	qr := q.SupportMBR()
	var near []*fuzzy.Object
	for _, o := range objs {
		if geom.MinDist(qr, o.SupportMBR()) <= reach {
			near = append(near, o)
		}
	}
	ix, err := fuzzyknn.NewIndex(near, nil)
	if err != nil {
		return nil, err
	}
	out, _, err := ix.RKNN(q, k, rknnStart, rknnEnd, fuzzyknn.Naive)
	return out, err
}

// checker judges responses of one workload. stable are the objects that are
// live for the whole run; volatile the ones the stream may insert or delete
// at any moment, so their presence in an answer cannot be predicted.
type checker struct {
	stable   []*fuzzy.Object
	volatile bool                     // objects outside stable may be live
	byID     map[uint64]*fuzzy.Object // every object the server may hold
}

func newChecker(w *workload, d *data) *checker {
	c := &checker{stable: d.base, byID: d.byID}
	if w.restart {
		c.stable, c.volatile = d.base[:len(d.base)-deletable], true
	}
	return c
}

func near(a, b float64) bool { return math.Abs(a-b) <= distTol }

// checkNeighbours verifies an AKNN (or, with k == 0, a range) answer. With no
// volatile objects it demands exactly the oracle's ids in the oracle's
// order. With volatile objects it demands what must hold whichever of them
// were live: every stable object nearer than the answer's last entry is in
// the answer, nothing stable in the answer is further than it should be,
// and every distance or bound is right for the object it names.
func (c *checker) checkNeighbours(body []byte, q *fuzzy.Object, k int, alpha, radius float64) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("malformed response: %w", err)
	}
	var want []neighbour
	if k > 0 {
		want = exactKNN(q, c.stable, k, alpha)
		if len(resp.Results) != k {
			return fmt.Errorf("got %d results, want %d", len(resp.Results), k)
		}
	} else {
		want = exactRange(q, c.stable, alpha, radius)
	}
	got := make(map[uint64]bool, len(resp.Results))
	cut := 0.0 // true distance of the furthest object in the answer
	for i, r := range resp.Results {
		o := c.byID[r.ID]
		if o == nil {
			return fmt.Errorf("result %d names unknown object %d", i, r.ID)
		}
		d := fuzzy.AlphaDistBrute(o, q, alpha)
		switch {
		case r.Exact && !near(r.Dist, d):
			return fmt.Errorf("object %d: distance %v, want %v", r.ID, r.Dist, d)
		case !r.Exact && (r.Lower > d+distTol || r.Upper < d-distTol):
			return fmt.Errorf("object %d: bounds [%v, %v] exclude %v", r.ID, r.Lower, r.Upper, d)
		}
		got[r.ID] = true
		cut = max(cut, d)
	}
	if !c.volatile || k == 0 {
		if len(resp.Results) != len(want) {
			return fmt.Errorf("got %d results, want %d", len(resp.Results), len(want))
		}
		// Lazy-probe AKNN may admit an object on its bounds alone and then
		// sorts it by the lower bound, so positions are only comparable
		// when every distance is exact; the set must match either way.
		allExact := true
		for _, r := range resp.Results {
			allExact = allExact && r.Exact
		}
		for i, n := range want {
			if allExact && resp.Results[i].ID != n.id {
				return fmt.Errorf("result %d is object %d, want %d", i, resp.Results[i].ID, n.id)
			}
			if !got[n.id] {
				return fmt.Errorf("object %d (distance %v) missing", n.id, n.dist)
			}
		}
		return nil
	}
	// The furthest entry bounds the answer: volatile objects can only have
	// pushed stable ones out from the far end.
	for _, n := range want {
		if n.dist < cut-distTol && !got[n.id] {
			return fmt.Errorf("object %d (distance %v) missing before %v", n.id, n.dist, cut)
		}
	}
	if wantLast := want[len(want)-1].dist; cut > wantLast+distTol {
		return fmt.Errorf("furthest distance %v exceeds %v", cut, wantLast)
	}
	return nil
}

func (c *checker) checkRKNN(body []byte, q *fuzzy.Object, k int) error {
	var resp server.RKNNResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("malformed response: %w", err)
	}
	want, err := naiveRKNN(q, c.stable, k)
	if err != nil {
		return err
	}
	if len(resp.Results) != len(want) {
		return fmt.Errorf("got %d objects, want %d", len(resp.Results), len(want))
	}
	for i, w := range want {
		r := resp.Results[i]
		ivs := w.Qualifying.Intervals()
		if r.ID != w.ID || len(r.Qualifying) != len(ivs) {
			return fmt.Errorf("result %d: object %d with %d intervals, want %d with %d",
				i, r.ID, len(r.Qualifying), w.ID, len(ivs))
		}
		for j, iv := range ivs {
			g := r.Qualifying[j]
			if !near(g.Lo, iv.Lo) || !near(g.Hi, iv.Hi) || g.LoOpen != iv.LoOpen || g.HiOpen != iv.HiOpen {
				return fmt.Errorf("object %d interval %d: got %+v, want %+v", w.ID, j, g, iv)
			}
		}
	}
	return nil
}

// check judges one sampled response.
func (c *checker) check(r *request, body []byte) error {
	switch r.kind {
	case kAKNN:
		return c.checkNeighbours(body, r.query, r.k, aknnAlpha, 0)
	case kRange:
		return c.checkNeighbours(body, r.query, 0, rangeAlpha, rangeRadius)
	case kRKNN:
		return c.checkRKNN(body, r.query, r.k)
	}
	return nil
}
