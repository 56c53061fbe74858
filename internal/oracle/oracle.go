// Package oracle holds the brute-force references the tests hold every read
// family to, and the committed-prefix window that holds reads made beside
// writes to them. Each reference exists once, here: kNN in (distance, id)
// order, range search d ≤ r, reverse kNN with ties broken by id against the
// query's, expected-distance kNN, and the pair lists that ε-joins and
// k-closest pairs cut. It also holds the cost model (cost.go): the set of
// objects Basic, LB, range search and RSS read, computed from the leaf
// rows without a tree.
//
// The package is test-only: only _test.go files import it, and it imports
// nothing that imports internal/query, so that package's own tests can use
// it. Its answers carry ids and distances; each caller turns them into its
// own result types.
package oracle

import (
	"cmp"
	"slices"

	"fuzzyknn/internal/fuzzy"
)

// Scored is one object of a reference answer and its distance to the query.
type Scored struct {
	ID   uint64
	Dist float64
}

// Pair is one pair of a reference join. Its fields are a JoinPair's, so the
// two print alike and convert into each other.
type Pair struct {
	LeftID, RightID uint64
	Dist            float64
}

// Expected, passed as α, selects the expected distance.
const Expected = -1

// Memo memoizes distances between objects, keyed by the objects' identity:
// populations that differ by a few objects share it.
type Memo map[memoKey]float64

type memoKey struct {
	a, b  *fuzzy.Object
	alpha float64
}

// dist is d_α(a, b), or with α = Expected the expected distance.
func (m Memo) dist(a, b *fuzzy.Object, alpha float64) float64 {
	k := memoKey{a, b, alpha}
	d, ok := m[k]
	if !ok {
		if alpha == Expected {
			d = fuzzy.ExpectedDist(a, b)
		} else {
			d = fuzzy.AlphaDist(a, b, alpha)
		}
		m[k] = d
	}
	return d
}

// Population is a set of objects, in the caller's order, whose references
// read their distances through a memo.
type Population struct {
	Objs  []*fuzzy.Object
	memo  Memo
	pairs map[float64][][]float64
	rows  map[*fuzzy.Object]row
}

// New is the population of objs; a nil memo gives it one of its own.
func New(objs []*fuzzy.Object, memo Memo) *Population {
	if memo == nil {
		memo = Memo{}
	}
	return &Population{Objs: objs, memo: memo, pairs: map[float64][][]float64{}, rows: map[*fuzzy.Object]row{}}
}

// Pair is the matrix of the objects' α-distances, memoized:
// Pair(α)[i][j] = d_α(Objs[i], Objs[j]).
func (p *Population) Pair(alpha float64) [][]float64 {
	if m, ok := p.pairs[alpha]; ok {
		return m
	}
	m := make([][]float64, len(p.Objs))
	for i, a := range p.Objs {
		m[i] = make([]float64, len(p.Objs))
		for j := range i {
			m[i][j] = p.memo.dist(a, p.Objs[j], alpha)
			m[j][i] = m[i][j]
		}
	}
	p.pairs[alpha] = m
	return m
}

// Ranked is every object with its distance to q (α = Expected: the expected
// distance) in (distance, id) order.
func (p *Population) Ranked(q *fuzzy.Object, alpha float64) []Scored {
	ss := make([]Scored, len(p.Objs))
	for i, o := range p.Objs {
		ss[i] = Scored{o.ID(), p.memo.dist(o, q, alpha)}
	}
	sortScored(ss)
	return ss
}

func sortScored(ss []Scored) {
	slices.SortFunc(ss, func(a, b Scored) int { return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID)) })
}

// KNN is the k nearest objects to q in (distance, id) order.
func (p *Population) KNN(q *fuzzy.Object, k int, alpha float64) []Scored {
	ss := p.Ranked(q, alpha)
	return ss[:min(k, len(ss))]
}

// Range is every object within r of q, the boundary included.
func (p *Population) Range(q *fuzzy.Object, alpha, r float64) []Scored {
	return slices.DeleteFunc(p.Ranked(q, alpha), func(s Scored) bool { return s.Dist > r })
}

// Reverse is every A with fewer than k objects B ≠ A for which
// (d_α(A, B), id_B) < (d_α(A, q), id_q), in (distance to q, id) order.
func (p *Population) Reverse(q *fuzzy.Object, k int, alpha float64) []Scored {
	pair := p.Pair(alpha)
	var in []Scored
	for i, a := range p.Objs {
		da, closer := p.memo.dist(a, q, alpha), 0
		for j, b := range p.Objs {
			if d := pair[i][j]; j != i && (d < da || d == da && b.ID() < q.ID()) {
				closer++
			}
		}
		if closer < k {
			in = append(in, Scored{a.ID(), da})
		}
	}
	sortScored(in)
	return in
}

// Pairs is every pair a join of the population with itself can answer, in
// (distance, left, right) order: each unordered pair once, left id first,
// for a self-join; every ordered pair, an object with itself included, for
// a join of two indexes over it.
func (p *Population) Pairs(alpha float64, self bool) []Pair {
	pair := p.Pair(alpha)
	var ps []Pair
	for i, a := range p.Objs {
		for j, b := range p.Objs {
			if !self || a.ID() < b.ID() {
				ps = append(ps, Pair{a.ID(), b.ID(), pair[i][j]})
			}
		}
	}
	sortPairs(ps)
	return ps
}

// Join is every pair of an object of left and one of the population, in
// (distance, left, right) order.
func (p *Population) Join(left []*fuzzy.Object, alpha float64) []Pair {
	var ps []Pair
	for _, a := range left {
		for _, b := range p.Objs {
			ps = append(ps, Pair{a.ID(), b.ID(), p.memo.dist(a, b, alpha)})
		}
	}
	sortPairs(ps)
	return ps
}

func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(x, y Pair) int {
		return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.LeftID, y.LeftID), cmp.Compare(x.RightID, y.RightID))
	})
}

// Within keeps the pairs of ps at most eps apart: the answer of an ε-join.
func Within(ps []Pair, eps float64) []Pair {
	n := 0
	for n < len(ps) && ps[n].Dist <= eps {
		n++
	}
	return ps[:n]
}
