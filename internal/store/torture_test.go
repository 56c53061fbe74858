package store

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/fuzzy"
)

// tortureOps are the mutating operations the sweep drives. Each returns
// the live set the store must hold afterwards — everything it
// acknowledged, the pre-op state when it acknowledged nothing — and its
// error.
var tortureOps = []struct {
	name string
	run  func(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object) (map[uint64]*fuzzy.Object, error)
}{
	{"append", func(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object) (map[uint64]*fuzzy.Object, error) {
		rng := rand.New(rand.NewPCG(101, 101))
		o := randObject(rng, 500, 3, 2)
		if err := insertOne(s, o); err != nil {
			return want, err
		}
		post := cloneSet(want)
		post[o.ID()] = o
		return post, nil
	}},
	{"applybatch", func(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object) (map[uint64]*fuzzy.Object, error) {
		rng := rand.New(rand.NewPCG(102, 102))
		ins := []*fuzzy.Object{randObject(rng, 501, 4, 2), randObject(rng, 502, 3, 2)}
		del := []uint64{1}
		if err := s.ApplyBatch(ins, del); err != nil {
			return want, err
		}
		post := cloneSet(want)
		for _, o := range ins {
			post[o.ID()] = o
		}
		for _, id := range del {
			delete(post, id)
		}
		return post, nil
	}},
	{"checkpoint", func(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object) (map[uint64]*fuzzy.Object, error) {
		_, err := s.Checkpoint()
		return want, err
	}},
	// A checkpoint that compacts a log with a suffix: a batch joins it
	// between the snapshot and the commit, so the commit moves a put and a
	// tombstone into the next log generation.
	{"compactlog", func(t *testing.T, s *LogStore, want map[uint64]*fuzzy.Object) (map[uint64]*fuzzy.Object, error) {
		o := randObject(rand.New(rand.NewPCG(103, 103)), 503, 3, 2)
		post := want
		_, err := checkpointWith(s, func() error {
			if err := s.ApplyBatch([]*fuzzy.Object{o}, []uint64{3}); err != nil {
				return err
			}
			post = cloneSet(want)
			post[o.ID()] = o
			delete(post, 3)
			return nil
		})
		return post, err
	}},
}

func cloneSet(m map[uint64]*fuzzy.Object) map[uint64]*fuzzy.Object {
	out := make(map[uint64]*fuzzy.Object, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// tortureBase builds a store with history spanning every artifact kind —
// a checkpoint generation, a later generation's log, and appends to it —
// so an armed failpoint on any file role actually sits on the op's path.
func tortureBase(t *testing.T, dir string) (*LogStore, map[uint64]*fuzzy.Object) {
	t.Helper()
	rng := rand.New(rand.NewPCG(77, 77))
	path := filepath.Join(dir, "torture.log")
	s, err := OpenLog(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*fuzzy.Object{}
	for i := 1; i <= 8; i++ {
		o := randObject(rng, uint64(i), 3+rng.IntN(2), 2)
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[o.ID()] = o
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := deleteOne(s, 2); err != nil {
		t.Fatal(err)
	}
	delete(want, 2)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i <= 12; i++ {
		o := randObject(rng, uint64(i), 3, 2)
		if err := insertOne(s, o); err != nil {
			t.Fatal(err)
		}
		want[o.ID()] = o
	}
	return s, want
}

// storagePoints returns every registered store.* failpoint. A warmup
// store exercises all open/checkpoint paths first so lazily
// registered points are all present.
func storagePoints(t *testing.T) []string {
	t.Helper()
	s, _ := tortureBase(t, t.TempDir())
	s.Close()
	var pts []string
	for _, name := range fault.List() {
		if strings.HasPrefix(name, "store.") {
			pts = append(pts, name)
		}
	}
	if len(pts) < 10 {
		t.Fatalf("only %d store failpoints registered: %v", len(pts), pts)
	}
	return pts
}

// TestTortureSweep is the acceptance battery: for every registered
// storage failpoint × {append, ApplyBatch, Checkpoint, a Checkpoint with a
// suffix} × {error, short, torn}, arm the point to fire on its first
// evaluation, run the op, then reopen from disk and assert the recovered
// store is exactly what the op acknowledged — never between, never
// divergent from what was acknowledged, and never unopenable. Fail-stop
// stickiness is asserted whenever the failure poisoned the store.
func TestTortureSweep(t *testing.T) {
	points := storagePoints(t)
	actions := []fault.Action{fault.ActError, fault.ActShort, fault.ActTorn}
	for _, point := range points {
		for _, op := range tortureOps {
			for _, action := range actions {
				t.Run(point+"/"+op.name+"/"+action.String(), func(t *testing.T) {
					defer fault.Reset()
					dir := t.TempDir()
					s, pre := tortureBase(t, dir)
					defer s.Close()

					fault.Enable(point, fault.Spec{Action: action, Nth: 1})
					expect, opErr := op.run(t, s, pre)
					fault.Reset()
					if opErr != nil {
						if errors.Is(opErr, ErrFailed) {
							if s.Failed() == nil {
								t.Fatal("op wrapped ErrFailed but Failed() is nil")
							}
							rng := rand.New(rand.NewPCG(1, 2))
							if err := insertOne(s, randObject(rng, 900, 3, 2)); !errors.Is(err, ErrFailed) {
								t.Fatalf("poisoned store acknowledged a mutation: %v", err)
							}
						} else if s.Failed() != nil {
							t.Fatalf("op error %v did not wrap ErrFailed but store is poisoned", opErr)
						}
					}

					// The live store must already serve the expected state
					// (reads survive every failure mode).
					checkFailState(t, s, expect, "live after op")

					// Reopen must land on exactly the expected state.
					s.Close()
					r, err := OpenLog(filepath.Join(dir, "torture.log"), 0)
					if err != nil {
						t.Fatalf("reopen (opErr=%v): %v", opErr, err)
					}
					defer r.Close()
					checkFailState(t, r, expect, "reopen")

					// No temp debris survives recovery.
					ents, err := os.ReadDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					for _, de := range ents {
						if strings.HasSuffix(de.Name(), ".tmp") {
							t.Fatalf("temp debris %s survived reopen", de.Name())
						}
					}
				})
			}
		}
	}
}
