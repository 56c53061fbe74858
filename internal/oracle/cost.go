package oracle

import (
	"math"
	"slices"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/geom"
)

// The cost model. Best-first search (§3, Algorithm 1) pops leaf entries and
// probed objects in (key, kind, id) order and stops at the k-th emitted
// object, whose (distance, id) is the scan's k-th, (d_k, id_k). Every key is
// a lower bound of the entry's distance, and at an equal key a leaf entry
// comes before an object, so the search probes exactly the objects whose
// leaf key is at most d_k, ids aside (every object when k ≥ n). A range
// search of radius r probes exactly the objects whose key is at most r.
// These sets depend on the population and the query alone, not on how the
// objects are cut into nodes and trees.

// row is what an R-tree leaf row holds of an object: its support box as
// one slice (the lower corner, then the upper) and its flat summary.
type row struct {
	support geom.Rect
	box     []float64
	sum     []float64
}

// row returns o's leaf row, memoized.
func (p *Population) row(o *fuzzy.Object) row {
	r, ok := p.rows[o]
	if !ok {
		r.support, r.sum = fuzzy.Summarize(o)
		r.box = append(slices.Clone(r.support.Lo), r.support.Hi...)
		p.rows[o] = r
	}
	return r
}

// key is the key a best-first search gives o's leaf entry against q at α,
// from o's leaf row alone. With cut false it is Basic's, the support box's
// MinDist to M_Q(α). With cut true it is the key of LB, LB-LP, LB-LP-UB and
// the range search: the §3.2 bound EstimateMinDist, raised to CutKey's. mq
// is M_Q(α).
func (p *Population) key(o, q *fuzzy.Object, mq geom.Rect, alpha float64, cut bool) float64 {
	r := p.row(o)
	if !cut {
		return geom.MinDist(r.support, mq)
	}
	return CutKey(q, alpha, r.box, r.sum, fuzzy.EstimateMinDist(r.box, r.sum, alpha, mq))
}

// CutKey is fuzzy.DistEval.CutKey from its definition, by brute force over
// the points of Q_α and not by its k-d tree walk: max(coarse, √g), where g
// is the least over q in Q_α of the larger of q's squared gap to M_A(α)*
// and its squared gap to the disk of radius R̂(α) about the centre c of
// A's support box, (√|q − c|² · (1 − (d + 16)·2⁻⁵²) − (R̂(α) + 2⁻⁵⁰⁰))₊,
// with |q − c|² capped at math.MaxFloat64. A row with no radial line has
// no disk. box and sum are A's leaf row, as EstimateMinDist takes them.
func CutKey(q *fuzzy.Object, alpha float64, box, sum []float64, coarse float64) float64 {
	d := len(box) / 2
	est := fuzzy.EstimateInto(box, sum, alpha, geom.Rect{})
	c := make(geom.Point, d)
	for k := range c {
		c[k] = float64(box[k]*0.5) + float64(box[d+k]*0.5)
	}
	rhat, disk := fuzzy.SummaryRadius(sum, d, alpha)
	scale := 1 - float64(d+16)*0x1p-52
	g := math.Inf(1)
	for i := 0; i < q.CutSize(alpha); i++ {
		pt, _ := q.At(i)
		v := geom.MinDistPointSq(pt, est)
		if disk {
			rho := math.Sqrt(min(geom.DistSq(pt, c), math.MaxFloat64))
			if dg := float64(rho*scale) - (rhat + 0x1p-500); dg > 0 {
				v = max(v, dg*dg)
			}
		}
		g = min(g, v)
	}
	return max(coarse, math.Sqrt(g))
}

// within returns the ids of the objects whose key against q at α is at most
// r, in ascending order.
func (p *Population) within(q *fuzzy.Object, alpha, r float64, cut bool) []uint64 {
	mq := q.MBR(alpha)
	var ids []uint64
	for _, o := range p.Objs {
		if p.key(o, q, mq, alpha, cut) <= r {
			ids = append(ids, o.ID())
		}
	}
	slices.Sort(ids)
	return ids
}

// kthDist is d_k of q at α, or +Inf when the population has fewer than k
// objects.
func (p *Population) kthDist(q *fuzzy.Object, k int, alpha float64) float64 {
	if k > len(p.Objs) {
		return math.Inf(1)
	}
	return p.KNN(q, k, alpha)[k-1].Dist
}

// Reads is the set of objects an AKNN of q at k and α probes, in ascending
// id order: Basic's (cut false) or LB's (cut true), the objects whose key
// is at most d_k. The lazy variants probe subsets of LB's.
func (p *Population) Reads(q *fuzzy.Object, k int, alpha float64, cut bool) []uint64 {
	return p.within(q, alpha, p.kthDist(q, k, alpha), cut)
}

// RangeReads is the set of objects a range search of q at α and radius r
// probes, in ascending id order: those whose cut key is at most r.
func (p *Population) RangeReads(q *fuzzy.Object, alpha, r float64) []uint64 {
	return p.within(q, alpha, r, true)
}

// RSSReads is the set of objects an RSS or RSS-ICR RKNN of q at k over
// [as, ae] probes, in ascending id order: its LB AKNN's at ae, and its
// range phase's at as, whose radius is d_k at ae.
func (p *Population) RSSReads(q *fuzzy.Object, k int, as, ae float64) []uint64 {
	r := p.kthDist(q, k, ae)
	ids := append(p.within(q, ae, r, true), p.within(q, as, r, true)...)
	slices.Sort(ids)
	return slices.Compact(ids)
}
