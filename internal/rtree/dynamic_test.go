package rtree

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"fuzzyknn/internal/geom"
)

// sumOf is the structural tests' summary of entry id. Every leaf row below
// carries one, so liveSet checks that the summaries travel with their ids
// through every insert, split, delete, condense, clone and bulk load.
func sumOf(id int) []float64 { return []float64{float64(id), -float64(id), 0.5} }

// insert adds entry id with its summary.
func insert(tr *Tree, r geom.Rect, id int) { tr.Insert(r, uint64(id), sumOf(id)...) }

// matchID is the Delete predicate for entry id.
func matchID(id int) func(any) bool { return func(d any) bool { return d.(uint64) == uint64(id) } }

// liveSet reads the ids of every leaf entry reachable from the tree,
// panicking on a row whose summary is not its id's.
func liveSet(tr *Tree) map[int]bool {
	out := make(map[int]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		for i := 0; i < n.Len(); i++ {
			if !n.Leaf() {
				walk(n.Child(i))
				continue
			}
			id := int(n.ID(i))
			if _, sum := n.EntrySummary(i); !slices.Equal(sum, sumOf(id)) {
				panic(fmt.Sprintf("entry %d carries the summary %v", id, sum))
			}
			out[id] = true
		}
	}
	walk(tr.Root())
	return out
}

func TestDeleteBasic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	tr := New(2, 4)
	rects := make([]geom.Rect, 200)
	for i := range rects {
		rects[i] = randRect(rng, 2, 5)
		insert(tr, rects[i], i)
	}
	// Delete in random order, checking structure at every step.
	order := rng.Perm(len(rects))
	for step, i := range order {
		if !tr.Delete(rects[i], matchID(i)) {
			t.Fatalf("step %d: entry %d not found", step, i)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if tr.Len() != len(rects)-step-1 {
			t.Fatalf("step %d: Len = %d", step, tr.Len())
		}
		// The deleted entry must be gone; a surviving one must be findable.
		if liveSet(tr)[i] {
			t.Fatalf("step %d: deleted entry %d still reachable", step, i)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after deleting everything: len=%d height=%d", tr.Len(), tr.Height())
	}
}

func TestDeleteMisses(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	tr := New(2, 4)
	r := randRect(rng, 2, 5)
	insert(tr, r, 1)
	if tr.Delete(r, matchID(2)) {
		t.Fatal("delete with non-matching payload succeeded")
	}
	if tr.Delete(randRect(rng, 2, 5), func(any) bool { return true }) {
		t.Fatal("delete with unknown rectangle succeeded")
	}
	if tr.Delete(geom.Rect{}, func(any) bool { return true }) {
		t.Fatal("delete with empty rectangle succeeded")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestInsertDeleteChurn runs a long randomized mixed workload against a
// model map, checking the structural invariants and the exact live set at
// checkpoints.
func TestInsertDeleteChurn(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	tr := New(2, 5)
	model := make(map[int]geom.Rect)
	next := 0
	const ops = 3000
	for op := 0; op < ops; op++ {
		if len(model) == 0 || rng.Float64() < 0.55 {
			r := randRect(rng, 2, 8)
			insert(tr, r, next)
			model[next] = r
			next++
		} else {
			// Delete a random live entry.
			var victim int
			k := rng.IntN(len(model))
			for id := range model {
				if k == 0 {
					victim = id
					break
				}
				k--
			}
			if !tr.Delete(model[victim], matchID(victim)) {
				t.Fatalf("op %d: live entry %d not deletable", op, victim)
			}
			delete(model, victim)
		}
		if op%100 == 0 || op == ops-1 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len=%d model=%d", op, tr.Len(), len(model))
			}
		}
	}
	got := liveSet(tr)
	if len(got) != len(model) {
		t.Fatalf("live set %d vs model %d", len(got), len(model))
	}
	for id := range model {
		if !got[id] {
			t.Fatalf("model entry %d missing from tree", id)
		}
	}
	// Search must find exactly the model entries intersecting a probe rect.
	for trial := 0; trial < 20; trial++ {
		probe := randRect(rng, 2, 30)
		want := make(map[int]bool)
		for id, r := range model {
			if r.Intersects(probe) {
				want[id] = true
			}
		}
		found := make(map[int]bool)
		search(tr, probe, func(id uint64) { found[int(id)] = true })
		if len(found) != len(want) {
			t.Fatalf("trial %d: found %d, want %d", trial, len(found), len(want))
		}
		for id := range want {
			if !found[id] {
				t.Fatalf("trial %d: missing %d", trial, id)
			}
		}
	}
}

// TestDeleteFromBulkLoaded exercises condense-tree on STR-built trees,
// whose nodes may start underfull.
func TestDeleteFromBulkLoaded(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	items := make([]BulkItem, 500)
	rects := make([]geom.Rect, len(items))
	for i := range items {
		rects[i] = randRect(rng, 2, 5)
		items[i] = BulkItem{Rect: rects[i], Data: uint64(i), Summary: sumOf(i)}
	}
	tr := BulkLoad(items, 2, 6)
	for _, i := range rng.Perm(len(rects))[:300] {
		if !tr.Delete(rects[i], matchID(i)) {
			t.Fatalf("entry %d not found", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestCloneSnapshotIsolation verifies the copy-on-write contract: a clone
// taken before heavy mutation keeps serving the exact old contents.
func TestCloneSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	tr := New(2, 4)
	rects := make([]geom.Rect, 300)
	for i := range rects {
		rects[i] = randRect(rng, 2, 5)
		insert(tr, rects[i], i)
	}
	snap := tr.Clone()
	wantLive := liveSet(snap)

	// Mutate the original: delete half, insert new ones.
	for _, i := range rng.Perm(len(rects))[:150] {
		if !tr.Delete(rects[i], matchID(i)) {
			t.Fatalf("entry %d not found", i)
		}
	}
	for i := 1000; i < 1200; i++ {
		insert(tr, randRect(rng, 2, 5), i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("mutated tree: %v", err)
	}

	// The snapshot must be byte-for-byte what it was.
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snap.Len() != 300 {
		t.Fatalf("snapshot Len = %d", snap.Len())
	}
	got := liveSet(snap)
	if len(got) != len(wantLive) {
		t.Fatalf("snapshot live set changed: %d vs %d", len(got), len(wantLive))
	}
	for id := range wantLive {
		if !got[id] {
			t.Fatalf("snapshot lost entry %d", id)
		}
	}
	// And the mutated tree must not see the snapshot's deleted half.
	mut := liveSet(tr)
	if len(mut) != tr.Len() {
		t.Fatalf("mutated live set %d vs Len %d", len(mut), tr.Len())
	}

	// Mutating the snapshot clone is equally safe in the other direction.
	before := tr.Len()
	for i := 2000; i < 2050; i++ {
		insert(snap, randRect(rng, 2, 5), i)
	}
	if tr.Len() != before {
		t.Fatal("mutating the clone disturbed the original")
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("mutated snapshot: %v", err)
	}
}

// TestMinFillInvariantDetectsUnderflow makes sure the checker actually
// fires on an artificially underfull node.
func TestMinFillInvariantDetectsUnderflow(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	tr := New(3, 7)
	for i := 0; i < 100; i++ {
		insert(tr, randRect(rng, 2, 5), i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Find a non-root leaf and strip it below min fill.
	var parent *Node
	n := tr.Root()
	for !n.leaf {
		parent = n
		n = n.kids[0]
	}
	if parent == nil {
		t.Skip("tree too small")
	}
	saved := *n
	n.ids = n.ids[:tr.minEntries-1]
	n.packed = n.packed[:n.stride*len(n.ids)]
	defer func() { *n = saved }()
	// The stale-MBR check may fire first; any error is acceptable, none is not.
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("underfull node not detected")
	}
}

// TestSummarySlab covers the rest of the rows' life: a leaf frame built
// from entries and one adopting decoded rows lay out and read back the same
// rectangles, ids and summaries; a tree of bare ids lays out no summary;
// and the checker fires on a leaf whose stride differs from its siblings'.
func TestSummarySlab(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	entries := make([]Entry, 5)
	var packed []float64
	var ids []uint64
	for i := range entries {
		entries[i] = Entry{Rect: randRect(rng, 2, 5), ID: uint64(10 + i), Summary: sumOf(i)}
		packed = append(append(append(packed, entries[i].Rect.Lo...), entries[i].Rect.Hi...), sumOf(i)...)
		ids = append(ids, uint64(10+i))
	}
	for name, n := range map[string]*Node{
		"NewFrame": NewFrame(true, entries),
		"NewLeaf":  NewLeaf(2, packed, ids),
	} {
		for i, e := range entries {
			box, sum := n.EntrySummary(i)
			if !n.EntryRect(i).Equal(e.Rect) || !geom.Point(box[:2]).Equal(e.Rect.Lo) || !geom.Point(box[2:]).Equal(e.Rect.Hi) ||
				!slices.Equal(sum, sumOf(i)) || n.ID(i) != e.ID {
				t.Fatalf("%s: entry %d reads back as %v %v id %d", name, i, box, sum, n.ID(i))
			}
		}
	}

	bare := NewFrame(true, []Entry{{Rect: randRect(rng, 2, 5), ID: 7}})
	if box, sum := bare.EntrySummary(0); len(box) != 4 || sum != nil {
		t.Errorf("a bare id's row reads back as %v %v", box, sum)
	}
	left, right := NewFrame(true, entries[:2]), NewFrame(true, entries[2:])
	rows := append(append(left.Bounds().Lo, left.Bounds().Hi...), append(right.Bounds().Lo, right.Bounds().Hi...)...)
	if err := NewPagedTree(NewInterior(2, rows, []*Node{left, right}), 2, 5, 1, 4).CheckInvariants(); err != nil {
		t.Fatalf("two leaves of one stride: %v", err)
	}
	rows = append(append(left.Bounds().Lo, left.Bounds().Hi...), append(bare.Bounds().Lo, bare.Bounds().Hi...)...)
	if err := NewPagedTree(NewInterior(2, rows, []*Node{left, bare}), 2, 3, 1, 4).CheckInvariants(); err == nil {
		t.Error("leaves of two strides not detected")
	}
}

// TestChurnDeterminism double-checks that the same seeded op sequence gives
// the same tree shape — mutations must be deterministic for reproducible
// experiments.
func TestChurnDeterminism(t *testing.T) {
	shape := func(seed uint64) string {
		rng := rand.New(rand.NewPCG(seed, seed))
		tr := New(2, 4)
		live := map[int]geom.Rect{}
		for op := 0; op < 500; op++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				r := randRect(rng, 2, 5)
				live[op] = r
				insert(tr, r, op)
			} else {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				victim := ids[rng.IntN(len(ids))]
				tr.Delete(live[victim], matchID(victim))
				delete(live, victim)
			}
		}
		ids := make([]int, 0, len(live))
		for id := range liveSet(tr) {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return fmt.Sprintf("h=%d len=%d ids=%v", tr.Height(), tr.Len(), ids)
	}
	if a, b := shape(42), shape(42); a != b {
		t.Fatalf("same seed, different trees:\n%s\n%s", a, b)
	}
}
