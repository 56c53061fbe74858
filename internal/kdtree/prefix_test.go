package kdtree

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"fuzzyknn/internal/geom"
)

// scanPrefixSq is the reference for NearestInPrefixSq: the smallest squared
// distance from q to the first m points, if strictly below boundSq.
func scanPrefixSq(pts []geom.Point, q geom.Point, m int, boundSq float64) float64 {
	best := math.Inf(1)
	for _, p := range pts[:m] {
		if d := geom.DistSq(q, p); d < boundSq && d < best {
			best = d
		}
	}
	return best
}

// TestNearestInPrefixMatchesScan holds the prefix query against a linear
// scan for every prefix length m ∈ [0, n] — bit for bit, since the distance
// profile built on it is compared exactly — with and without a bound, on
// point sets that repeat coordinates (a quarter of the points are copies of
// earlier ones, and coordinates are drawn from a small lattice, so median
// splits meet ties), reusing one tree across sizes and dimensionalities.
func TestNearestInPrefixMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	var tree PrefixTree
	for _, n := range []int{1, 2, 3, 17, 64, 40, 5} { // shrinks after growing: stale buffers
		for d := 1; d <= 4; d++ {
			pts := make([]geom.Point, n)
			for i := range pts {
				if i > 0 && rng.IntN(4) == 0 {
					pts[i] = pts[rng.IntN(i)]
					continue
				}
				p := make(geom.Point, d)
				for j := range p {
					p[j] = float64(rng.IntN(9)) / 2
				}
				pts[i] = p
			}
			tree.Rebuild(flat(pts), d)
			if tree.Len() != n {
				t.Fatalf("Len = %d, want %d", tree.Len(), n)
			}
			for trial := 0; trial < 6; trial++ {
				q := make(geom.Point, d)
				for j := range q {
					q[j] = rng.Float64()*6 - 1
				}
				if trial == 0 {
					q = pts[rng.IntN(n)] // a query on top of a point: distance 0
				}
				for m := 0; m <= n; m++ {
					for _, boundSq := range []float64{math.Inf(1), scanPrefixSq(pts, q, n, math.Inf(1)) * 2, 0} {
						want := scanPrefixSq(pts, q, m, boundSq)
						i, got := tree.NearestInPrefixSq(q, m, boundSq)
						if got != want {
							t.Fatalf("n=%d d=%d m=%d bound²=%v: distance² %v, want %v", n, d, m, boundSq, got, want)
						}
						switch {
						case math.IsInf(want, 1):
							if i != -1 {
								t.Fatalf("n=%d d=%d m=%d bound²=%v: index %d with no qualifying point", n, d, m, boundSq, i)
							}
						case i < 0 || i >= m || geom.DistSq(q, pts[i]) != got:
							t.Fatalf("n=%d d=%d m=%d: index %d is not a point of the prefix at distance² %v", n, d, m, i, got)
						}
					}
				}
			}
		}
	}
}

// TestNearestInPrefixStrictBound: a point exactly at the bound does not
// qualify, as with NearestWithin.
func TestNearestInPrefixStrictBound(t *testing.T) {
	var tree PrefixTree
	tree.Rebuild([]float64{0, 0, 3, 0}, 2)
	if i, d := tree.NearestInPrefixSq(geom.Point{1, 0}, 2, 1); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("bound² 1 admitted (%d, %v)", i, d)
	}
	if i, d := tree.NearestInPrefixSq(geom.Point{1, 0}, 2, math.Nextafter(1, 2)); i != 0 || d != 1 {
		t.Errorf("just above the bound = (%d, %v), want (0, 1)", i, d)
	}
	// The nearer point is outside the prefix of one.
	if i, d := tree.NearestInPrefixSq(geom.Point{3, 0}, 1, math.Inf(1)); i != 0 || d != 9 {
		t.Errorf("prefix of one = (%d, %v), want (0, 9)", i, d)
	}
}

func TestPrefixTreeEmptyAndMismatch(t *testing.T) {
	var tree PrefixTree
	if i, d := tree.NearestInPrefixSq(geom.Point{0, 0}, 1, math.Inf(1)); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("zero tree = (%d, %v)", i, d)
	}
	tree.Rebuild([]float64{1, 2, 3, 4}, 2)
	tree.Rebuild(nil, 2)
	if i, d := tree.NearestInPrefixSq(geom.Point{0, 0}, 1, math.Inf(1)); tree.Len() != 0 || i != -1 || !math.IsInf(d, 1) {
		t.Errorf("emptied tree: Len %d, query (%d, %v)", tree.Len(), i, d)
	}
	tree.Rebuild([]float64{1, 2, 3, 4}, 2)
	defer func() {
		if r := recover(); r != "kdtree: dimension mismatch 3 vs 2" {
			t.Errorf("3-d query on a 2-d tree: recovered %v", r)
		}
	}()
	tree.NearestInPrefixSq(geom.Point{0, 0, 0}, 2, math.Inf(1))
}

// TestTreeSizeUnchanged pins that the prefix annotation lives beside Tree,
// not in it: fuzzy.DistEval embeds a Tree and rebuilds it on every search.
func TestTreeSizeUnchanged(t *testing.T) {
	const want = 2*unsafe.Sizeof([]int(nil)) + unsafe.Sizeof(int(0))
	if got := unsafe.Sizeof(Tree{}); got != want {
		t.Fatalf("Tree is %d bytes, want %d (two slices and the dimensionality)", got, want)
	}
}
