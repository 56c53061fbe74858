package query

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// This file pins the group-commit contract: an index ingested through
// ApplyBatch must answer byte-identically to one ingested by per-op
// Insert/Delete — across every AKNN and RKNN variant, range search,
// reverse kNN and expected-distance kNN, on single-tree and 4-shard
// layouts, on fresh, churned and drained populations — and a rejected
// batch must leave no trace.

// emptySearcher builds an empty mutable index of the requested layout.
func emptySearcher(t *testing.T, shards int, opts Options) Searcher {
	t.Helper()
	if shards <= 1 {
		ms, err := store.NewMemStore(nil)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	return buildShardedOver(t, nil, shards, opts)
}

// batchEquivState mirrors every mutation onto two indexes of the same
// layout: seq applies items one by one, bat group-commits them through
// ApplyBatch. The batch semantics (inserts before deletes, disjoint ids)
// are mirrored by sequencing the per-op side the same way.
type batchEquivState struct {
	t    *testing.T
	rng  *rand.Rand
	seq  Searcher
	bat  Searcher
	live []uint64
	next uint64
}

func newBatchEquivState(t *testing.T, seed uint64, shards int) *batchEquivState {
	rng := rand.New(rand.NewPCG(seed, seed^0x5ca1ab1e))
	opts := Options{MinEntries: 2, MaxEntries: 6, Incremental: seed%2 == 1}
	return &batchEquivState{
		t:    t,
		rng:  rng,
		seq:  emptySearcher(t, shards, opts),
		bat:  emptySearcher(t, shards, opts),
		next: 1,
	}
}

// apply lands one logical batch on both sides.
func (s *batchEquivState) apply(inserts []*fuzzy.Object, deletes []uint64) {
	s.t.Helper()
	for _, o := range inserts {
		if _, err := Insert(s.seq, o); err != nil {
			s.t.Fatalf("sequential insert %d: %v", o.ID(), err)
		}
	}
	for _, id := range deletes {
		if _, err := Delete(s.seq, id); err != nil {
			s.t.Fatalf("sequential delete %d: %v", id, err)
		}
	}
	stats, err := s.bat.ApplyBatch(inserts, deletes)
	if err != nil {
		s.t.Fatalf("batch of %d inserts + %d deletes: %v", len(inserts), len(deletes), err)
	}
	if len(stats) != len(inserts)+len(deletes) {
		s.t.Fatalf("batch returned %d stats for %d items", len(stats), len(inserts)+len(deletes))
	}
	for j := range deletes {
		if got := stats[len(inserts)+j].ObjectAccesses; got != 1 {
			s.t.Fatalf("delete item %d charged %d object accesses, want 1 (the locate probe)", j, got)
		}
	}
	for _, o := range inserts {
		s.live = append(s.live, o.ID())
	}
	for _, id := range deletes {
		for i := range s.live {
			if s.live[i] == id {
				s.live[i] = s.live[len(s.live)-1]
				s.live = s.live[:len(s.live)-1]
				break
			}
		}
	}
}

// freshObjects mints objects with previously unused ids.
func (s *batchEquivState) freshObjects(n int) []*fuzzy.Object {
	objs := makeObjectsWithBase(s.rng, s.next, n, 10, 12, 8)
	s.next += uint64(n) + 1
	return objs
}

// churn applies batches of mixed inserts and deletes of random sizes.
func (s *batchEquivState) churn(batches int) {
	for b := 0; b < batches; b++ {
		ins := s.freshObjects(1 + s.rng.IntN(20))
		var dels []uint64
		if len(s.live) > 0 {
			want := s.rng.IntN(min(12, len(s.live)) + 1)
			perm := s.rng.Perm(len(s.live))
			for _, i := range perm[:want] {
				dels = append(dels, s.live[i])
			}
		}
		s.apply(ins, dels)
	}
}

func (s *batchEquivState) checkInvariants() {
	s.t.Helper()
	if err := s.seq.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
		s.t.Fatalf("sequential index: %v", err)
	}
	if err := s.bat.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
		s.t.Fatalf("batch index: %v", err)
	}
	if s.seq.Len() != len(s.live) || s.bat.Len() != len(s.live) {
		s.t.Fatalf("len: sequential %d, batch %d, model %d", s.seq.Len(), s.bat.Len(), len(s.live))
	}
}

// assertEquivalent demands byte-identical answers from both ingest paths
// across all 8 AKNN/RKNN variants plus every other query family. Lazy
// AKNN variants are compared refined (their intermediate bounds may
// legitimately differ between tree shapes; the exact answers may not).
func (s *batchEquivState) assertEquivalent(label string, queries int) {
	s.t.Helper()
	s.checkInvariants()
	for qi := 0; qi < queries; qi++ {
		q := makeQuery(s.rng, 12, 12, 8)
		for _, k := range []int{1, 5} {
			for _, alpha := range []float64{0.3, 0.75} {
				want, _, err := s.seq.LinearScanAKNN(q, k, alpha)
				if err != nil {
					s.t.Fatalf("%s: sequential linear scan: %v", label, err)
				}
				got, _, err := s.bat.LinearScanAKNN(q, k, alpha)
				if err != nil {
					s.t.Fatalf("%s: batch linear scan: %v", label, err)
				}
				mustEqualResults(s.t, got, want, label+"/linear")
				for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
					raw, _, err := s.bat.AKNN(q, k, alpha, algo)
					if err != nil {
						s.t.Fatalf("%s: batch %v: %v", label, algo, err)
					}
					refined, _, err := s.bat.Refine(q, alpha, raw)
					if err != nil {
						s.t.Fatalf("%s: batch refine %v: %v", label, algo, err)
					}
					mustEqualResults(s.t, refined, want, label+"/"+algo.String())
				}
			}
		}
		s.assertRKNNEquivalent(q, 4, 0.2, 0.85, label)
		s.assertRKNNEquivalent(q, 2, 0.5, 0.5, label)
		for _, radius := range []float64{0, 2.5, 8} {
			want, _, err := s.seq.RangeSearch(q, 0.5, radius)
			if err != nil {
				s.t.Fatalf("%s: sequential range: %v", label, err)
			}
			got, _, err := s.bat.RangeSearch(q, 0.5, radius)
			if err != nil {
				s.t.Fatalf("%s: batch range: %v", label, err)
			}
			mustEqualResults(s.t, got, want, label+"/range")
		}
		wantRev, _, err := s.seq.ReverseKNN(q, 4, 0.6)
		if err != nil {
			s.t.Fatalf("%s: sequential reverse: %v", label, err)
		}
		gotRev, _, err := s.bat.ReverseKNN(q, 4, 0.6)
		if err != nil {
			s.t.Fatalf("%s: batch reverse: %v", label, err)
		}
		mustEqualResults(s.t, gotRev, wantRev, label+"/reverse")
		wantE, _, err := s.seq.ExpectedDistKNN(q, 4)
		if err != nil {
			s.t.Fatalf("%s: sequential eknn: %v", label, err)
		}
		gotE, _, err := s.bat.ExpectedDistKNN(q, 4)
		if err != nil {
			s.t.Fatalf("%s: batch eknn: %v", label, err)
		}
		mustEqualResults(s.t, gotE, wantE, label+"/eknn")
	}
}

// assertRKNNEquivalent compares all four RKNN variants of the batch index
// against the sequential index's RSSICR reference, byte for byte.
func (s *batchEquivState) assertRKNNEquivalent(q *fuzzy.Object, k int, as, ae float64, label string) {
	s.t.Helper()
	want, _, err := s.seq.RKNN(q, k, as, ae, RSSICR)
	if err != nil {
		s.t.Fatalf("%s: sequential RKNN: %v", label, err)
	}
	for _, algo := range []RKNNAlgorithm{Naive, BasicRKNN, RSS, RSSICR} {
		got, _, err := s.bat.RKNN(q, k, as, ae, algo)
		if err != nil {
			s.t.Fatalf("%s: batch %v: %v", label, algo, err)
		}
		if len(got) != len(want) {
			s.t.Fatalf("%s: batch %v returned %d objects, sequential %d", label, algo, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				s.t.Fatalf("%s: %v result %d: id %d, want %d", label, algo, i, got[i].ID, want[i].ID)
			}
			if g, w := got[i].Qualifying.String(), want[i].Qualifying.String(); g != w {
				s.t.Fatalf("%s: %v object %d qualifies on %s, sequential on %s",
					label, algo, got[i].ID, g, w)
			}
		}
	}
}

// TestBatchEquivalence is the headline group-commit property test: batch
// ingest answers byte-identically to sequential ingest on fresh, churned
// and drained populations, single-tree and 4-shard.
func TestBatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		shards int
	}{
		{"single", 4, 1},             // STR default: large batches take the bulk-rebuild path
		{"single-incremental", 3, 1}, // Incremental ablation: always per-insert
		{"sharded4", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newBatchEquivState(t, tc.seed, tc.shards)
			// Fresh: one big group commit vs object-by-object.
			s.apply(s.freshObjects(120), nil)
			s.assertEquivalent("fresh", 3)
			// Churned: ≥30 mixed batches of random sizes.
			s.churn(30)
			s.assertEquivalent("churned", 3)
			// Drained: delete everything in a few batches, then assert on
			// the empty index, then refill.
			for len(s.live) > 0 {
				n := min(40, len(s.live))
				dels := make([]uint64, n)
				copy(dels, s.live[:n])
				s.apply(nil, dels)
			}
			s.assertEquivalent("drained", 2)
			s.apply(s.freshObjects(40), nil)
			s.assertEquivalent("refilled", 2)
		})
	}
}

// TestApplyBatchAllOrNothing checks that a rejected batch (every item
// error collected, positions exact) leaves both layouts untouched.
func TestApplyBatchAllOrNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := newBatchEquivState(t, 7, shards)
		s.apply(s.freshObjects(40), nil)
		lenBefore := s.bat.Len()

		okIns := s.freshObjects(3)
		dupLive := s.live[0]
		batch := []*fuzzy.Object{okIns[0], nil, okIns[1], mustObj(t, dupLive), okIns[2]}
		dels := []uint64{s.live[1], 999_999, s.live[1]}
		_, err := s.bat.ApplyBatch(batch, dels)
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("shards=%d: error %v, want *BatchError", shards, err)
		}
		wantItems := []struct {
			op  BatchOp
			pos int
		}{
			{OpInsert, 1}, // nil object
			{OpInsert, 3}, // duplicate of a live id
			{OpDelete, 1}, // unknown id
			{OpDelete, 2}, // repeated delete
		}
		if len(be.Items) != len(wantItems) {
			t.Fatalf("shards=%d: %d item errors (%v), want %d", shards, len(be.Items), be, len(wantItems))
		}
		for i, w := range wantItems {
			if be.Items[i].Op != w.op || be.Items[i].Pos != w.pos {
				t.Fatalf("shards=%d: item %d is (%v, %d), want (%v, %d)",
					shards, i, be.Items[i].Op, be.Items[i].Pos, w.op, w.pos)
			}
		}
		if !errors.Is(err, store.ErrDuplicate) || !errors.Is(err, store.ErrNotFound) || !errors.Is(err, ErrInvalidArgument) {
			t.Fatalf("shards=%d: batch error %v must expose its causes to errors.Is", shards, err)
		}
		if s.bat.Len() != lenBefore {
			t.Fatalf("shards=%d: rejected batch changed Len %d -> %d", shards, lenBefore, s.bat.Len())
		}
		// The corrected batch commits.
		s.apply(okIns, []uint64{s.live[1]})
		s.assertEquivalent("after-rejection", 2)
	}
}

// TestApplyBatchProbeAccounting builds an index over a Counting store and
// checks the probe contract: each delete costs exactly one store access
// (mirrored in its per-item Stats), inserts cost none, and liveness-level
// rejections (unknown delete id, duplicate insert) are answered from the
// store's live map without probing.
func TestApplyBatchProbeAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	objs := makeObjects(rng, 20, 5, 10, 4)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(ms)
	ix, err := Build(counting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()

	ins := makeObjectsWithBase(rng, 100, 2, 5, 10, 4)
	stats, err := ix.ApplyBatch(ins, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, st := range stats {
		total += st.ObjectAccesses
	}
	if total != 3 || counting.Count() != 3 {
		t.Fatalf("batch charged %d accesses, store saw %d; want 3 (one locate per delete)", total, counting.Count())
	}

	// Liveness-checkable rejections must not probe.
	counting.Reset()
	if _, err := ix.ApplyBatch([]*fuzzy.Object{objs[5]}, nil); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := ix.ApplyBatch(nil, []uint64{777_777}); err == nil {
		t.Fatal("unknown delete accepted")
	}
	if counting.Count() != 0 {
		t.Fatalf("liveness rejections probed the store %d times", counting.Count())
	}
}

// mustObj builds a 1-point object with the given id.
func mustObj(t *testing.T, id uint64) *fuzzy.Object {
	t.Helper()
	o, err := fuzzy.New(id, []fuzzy.WeightedPoint{{P: []float64{1, 1}, Mu: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestApplyBatchDimsAdoption: an empty index adopts the batch's
// dimensionality atomically, and a mixed-dims batch is rejected whole —
// including the cross-shard case where the two dims land on different
// shards.
func TestApplyBatchDimsAdoption(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := emptySearcher(t, shards, Options{})
		rng := rand.New(rand.NewPCG(9, 9))
		objs2 := makeObjects(rng, 6, 5, 10, 4)
		var threeD []*fuzzy.Object
		for base := uint64(100); len(threeD) < 6; base++ {
			o, err := fuzzy.New(base, []fuzzy.WeightedPoint{{P: []float64{1, 2, 3}, Mu: 1}})
			if err != nil {
				t.Fatal(err)
			}
			threeD = append(threeD, o)
		}
		if _, err := s.ApplyBatch(append(objs2[:3:3], threeD[:3]...), nil); err == nil {
			t.Fatalf("shards=%d: mixed-dims batch accepted", shards)
		}
		if s.Len() != 0 || s.Dims() != 0 {
			t.Fatalf("shards=%d: rejected batch left len=%d dims=%d", shards, s.Len(), s.Dims())
		}
		if _, err := s.ApplyBatch(objs2, nil); err != nil {
			t.Fatalf("shards=%d: 2d batch: %v", shards, err)
		}
		if s.Dims() != 2 {
			t.Fatalf("shards=%d: dims %d after 2d batch", shards, s.Dims())
		}
		if _, err := s.ApplyBatch(threeD, nil); err == nil {
			t.Fatalf("shards=%d: 3d batch accepted into 2d index", shards)
		}
	}
}

// TestApplyBatchReadOnly: every item of a batch against a read-only store
// is rejected with ErrReadOnly.
func TestApplyBatchReadOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	objs := makeObjects(rng, 5, 5, 10, 4)
	ix := buildIndex(t, objs, Options{})
	ro, err := Build(readOnlyStore{ix.Store()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ro.ApplyBatch(makeObjectsWithBase(rng, 100, 2, 5, 10, 4), []uint64{1})
	if !errors.Is(err, store.ErrReadOnly) {
		t.Fatalf("batch on read-only store: %v, want ErrReadOnly", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || len(be.Items) != 3 {
		t.Fatalf("read-only rejection must list every item: %v", err)
	}
}

// readOnlyStore hides a store's write side.
type readOnlyStore struct{ store.Reader }

// TestApplyBatchConcurrentQueries race-checks group commits against
// snapshot readers on both layouts: queries running during an ApplyBatch
// must see either the whole batch or none of it (per shard).
func TestApplyBatchConcurrentQueries(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := newBatchEquivState(t, 11, shards)
		s.apply(s.freshObjects(80), nil)
		const batches = 20
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, 1))
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := makeQuery(rng, 8, 12, 8)
					if _, _, err := s.bat.AKNN(q, 3, 0.5, LBLPUB); err != nil {
						t.Errorf("AKNN during batch: %v", err)
						return
					}
					if _, _, err := s.bat.RKNN(q, 2, 0.3, 0.8, RSSICR); err != nil {
						t.Errorf("RKNN during batch: %v", err)
						return
					}
				}
			}(uint64(w + 100))
		}
		for b := 0; b < batches; b++ {
			ins := s.freshObjects(8)
			var dels []uint64
			for i := 0; i < 4 && i < len(s.live); i++ {
				dels = append(dels, s.live[i])
			}
			if _, err := s.bat.ApplyBatch(ins, dels); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			for _, o := range ins {
				s.live = append(s.live, o.ID())
			}
			remaining := s.live[:0]
			for _, id := range s.live {
				found := false
				for _, d := range dels {
					if d == id {
						found = true
						break
					}
				}
				if !found {
					remaining = append(remaining, id)
				}
			}
			s.live = remaining
		}
		close(stop)
		wg.Wait()
		if err := s.bat.(interface{ CheckInvariants() error }).CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
