package replica

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
)

// TestBackoffFullJitter pins the documented MinBackoff/MaxBackoff
// semantics: the first retry of a streak sleeps exactly MinBackoff, later
// retries draw uniformly from [MinBackoff, ceiling] with the ceiling
// doubling up to MaxBackoff, reset narrows back to the floor, and the
// whole schedule is a deterministic function of the seed.
func TestBackoffFullJitter(t *testing.T) {
	const min, max = 100 * time.Millisecond, 2 * time.Second
	a := newJitterBackoff(min, max, 42)
	b := newJitterBackoff(min, max, 42)

	if d := a.next(); d != min {
		t.Fatalf("first retry slept %v, want exactly MinBackoff %v", d, min)
	}
	b.next()
	ceil := min
	var sawUpperHalf bool
	for i := 1; i < 64; i++ {
		ceil *= 2
		if ceil > max {
			ceil = max
		}
		d := a.next()
		if db := b.next(); db != d {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, d, db)
		}
		if d < min || d > ceil {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, min, ceil)
		}
		if d > max/2 {
			sawUpperHalf = true
		}
	}
	if !sawUpperHalf {
		t.Fatal("64 draws never entered the upper half of the window — ceiling not widening")
	}

	a.reset()
	if d := a.next(); d != min {
		t.Fatalf("first retry after reset slept %v, want exactly MinBackoff %v", d, min)
	}

	// Different seeds give different schedules once the window is open.
	x := newJitterBackoff(min, max, 1)
	y := newJitterBackoff(min, max, 2)
	same := true
	for i := 0; i < 16; i++ {
		if x.next() != y.next() {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 16-draw schedules")
	}
}

// chaosChurn applies one round of mutations leader-side: three inserts and
// one delete of the oldest live id, returning the updated live-id floor.
func chaosChurn(tl *testLeader, nextID *uint64, floor uint64) uint64 {
	ins := make([]*fuzzy.Object, 3)
	for i := range ins {
		ins[i] = obj(*nextID, float64(*nextID), float64(i))
		*nextID++
	}
	tl.apply(ins, nil)
	tl.apply(nil, []uint64{floor})
	return floor + 1
}

// assertConverged checks the follower's applied state is byte-identical to
// the leader's (same ids, same wire CRCs) and that its stats agree.
func assertConverged(t *testing.T, tl *testLeader, target *fakeApplier, f *Follower) {
	t.Helper()
	tl.mu.Lock()
	leaderIDs := make([]uint64, 0, len(tl.objs))
	for id := range tl.objs {
		leaderIDs = append(leaderIDs, id)
	}
	sort.Slice(leaderIDs, func(i, j int) bool { return leaderIDs[i] < leaderIDs[j] })
	leaderCRC := make(map[uint64]uint32, len(leaderIDs))
	for id, o := range tl.objs {
		leaderCRC[id] = objectCRC(o)
	}
	lastSeq := tl.log.LastSeq()
	tl.mu.Unlock()

	target.mu.Lock()
	defer target.mu.Unlock()
	if len(target.objs) != len(leaderIDs) {
		t.Fatalf("follower holds %d objects, leader %d", len(target.objs), len(leaderIDs))
	}
	for _, id := range leaderIDs {
		o, ok := target.objs[id]
		if !ok {
			t.Fatalf("follower missing object %d", id)
		}
		if got, want := objectCRC(o), leaderCRC[id]; got != want {
			t.Fatalf("object %d diverged: follower crc %08x, leader %08x", id, got, want)
		}
	}
	st := f.Stats()
	if st.AppliedSeq != lastSeq {
		t.Fatalf("applied seq %d, leader at %d", st.AppliedSeq, lastSeq)
	}
	if st.LagFrames != 0 {
		t.Fatalf("converged follower reports lag %d", st.LagFrames)
	}
}

// TestFollowerChaosConvergence is the replication half of the chaos
// battery: a follower syncs through a transport that drops connections,
// truncates bodies, corrupts frames and stalls — across leader-side churn
// and a retention window small enough to force re-bootstraps — and must
// end every round byte-identical to the leader. Mid-history it must report
// its lag honestly rather than pretending convergence.
func TestFollowerChaosConvergence(t *testing.T) {
	defer fault.Reset()
	tl := newTestLeader(7, 4) // 4-frame retention: falling behind forces a re-bootstrap
	nextID, floor := uint64(1), uint64(1)
	for i := 0; i < 4; i++ {
		floor = chaosChurn(tl, &nextID, floor)
	}
	srv := httptest.NewServer(tl.handler())
	defer srv.Close()

	target := newFakeApplier()
	f, err := NewFollower(srv.URL, target, &Options{
		MinBackoff:  time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		BackoffSeed: 99,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, tl, target, f)

	// Each fetch fails with seeded probability for the whole round (a
	// deterministic every-kth trigger can phase-lock with the
	// bootstrap/poll alternation and livelock); the follower must retry,
	// re-bootstrap where the failure demands it, and still converge.
	for ai, action := range []fault.Action{fault.ActError, fault.ActShort, fault.ActTorn, fault.ActStall} {
		t.Run(action.String(), func(t *testing.T) {
			defer fault.Reset()
			for round := 0; round < 2; round++ {
				floor = chaosChurn(tl, &nextID, floor)
				fault.Enable("replica.fetch", fault.Spec{
					Action: action,
					Prob:   0.4,
					Seed:   uint64(1000 + 10*ai + round),
					Stall:  time.Millisecond,
				})
				err := f.Sync(ctx)
				fault.Reset()
				if err != nil {
					t.Fatalf("sync under %s: %v", action, err)
				}
				assertConverged(t, tl, target, f)
			}
		})
	}

	st := f.Stats()
	if st.Reconnects == 0 {
		t.Fatal("chaos produced zero reconnects — the failpoint never bit")
	}
	if st.Bootstraps < 2 {
		t.Fatalf("chaos produced %d bootstraps, want a re-bootstrap beyond the initial one", st.Bootstraps)
	}

	// Honest lag: park the follower mid-history and check it reports how
	// far behind it is instead of claiming convergence.
	parkAt := f.Stats().AppliedSeq
	for i := 0; i < 2; i++ {
		floor = chaosChurn(tl, &nextID, floor)
	}
	if err := f.SyncTo(ctx, parkAt+1); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.AppliedSeq != parkAt+1 {
		t.Fatalf("parked at %d, want %d", st.AppliedSeq, parkAt+1)
	}
	if st.LagFrames < 3 {
		t.Fatalf("parked follower reports lag %d, want >= 3 (4 frames behind the observed head)", st.LagFrames)
	}

	// And a clean final sync erases the lag.
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, tl, target, f)
}
