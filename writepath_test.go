package fuzzyknn

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/fault"
	"fuzzyknn/internal/query"
)

// errClass names the errors.Is class callers (and the HTTP status mapping)
// branch on.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for name, class := range map[string]error{
		"invalid": ErrInvalidQuery, "duplicate": ErrDuplicate, "notfound": ErrNotFound,
		"readonly": ErrReadOnly, "degraded": ErrDegraded,
	} {
		if errors.Is(err, class) {
			return name
		}
	}
	return "other: " + err.Error()
}

// TestSingleMutationIsOneItemBatch pins the contract that replaced the
// per-object write path: query.Insert and query.Delete are a one-item
// ApplyBatch. Twin indexes take the same history, one through the two
// functions and one through one-item ApplyBatch calls, over every mutable
// store, shard count and with the replication recorder on or off; each step
// must land in the same error class with the same probe count and
// population, the functions must hand back the item's own error where
// ApplyBatch hands back a *BatchError, a delete's locate probe is charged
// once, and a replication leader appends exactly one frame per committed
// call and none per refused one.
func TestSingleMutationIsOneItemBatch(t *testing.T) {
	objs, _ := smallDataset(t, 6, 21)
	threeD, err := NewObject(900, []WeightedPoint{{P: Point{1, 2, 3}, Mu: 1}})
	if err != nil {
		t.Fatal(err)
	}
	static := filepath.Join(t.TempDir(), "static.fzs")
	if err := SaveObjects(static, 2, objs[:2]); err != nil {
		t.Fatal(err)
	}

	type step struct {
		name   string
		insert *Object // nil with del == 0 inserts a nil object
		del    uint64
		want   string
		arm    bool // run with every log fsync failing
	}
	mutable := []step{
		{name: "insert", insert: objs[0], want: "ok"},
		{name: "insert second", insert: objs[1], want: "ok"},
		{name: "insert nil", want: "invalid"},
		{name: "insert wrong dims", insert: threeD, want: "invalid"},
		{name: "insert duplicate", insert: objs[0], want: "duplicate"},
		{name: "delete", del: objs[1].ID(), want: "ok"},
		{name: "delete dead id", del: objs[1].ID(), want: "notfound"},
		{name: "delete unknown id", del: 1 << 40, want: "notfound"},
		{name: "re-insert deleted id", insert: objs[1], want: "ok"},
	}
	failStop := []step{
		{name: "insert over a failing fsync", insert: objs[2], want: "degraded", arm: true},
		{name: "insert on the fail-stopped store", insert: objs[3], want: "degraded"},
		{name: "delete on the fail-stopped store", del: objs[0].ID(), want: "degraded"},
	}
	readOnly := []step{
		{name: "insert", insert: objs[2], want: "readonly"},
		{name: "delete", del: objs[0].ID(), want: "readonly"},
	}
	stores := []struct {
		name  string
		open  func(t *testing.T, cfg *Config) *Index
		steps []step
	}{
		{"mem", func(t *testing.T, cfg *Config) *Index {
			ix, err := NewIndex(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}, mutable},
		{"log", func(t *testing.T, cfg *Config) *Index {
			ix, err := OpenLogIndex(filepath.Join(t.TempDir(), "objects.fzl"), 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}, append(append([]step(nil), mutable...), failStop...)},
		{"static", func(t *testing.T, cfg *Config) *Index {
			ix, err := OpenIndex(static, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}, readOnly},
	}

	for _, st := range stores {
		for _, shards := range []int{1, 3} {
			for _, replicate := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/replication=%v", st.name, shards, replicate), func(t *testing.T) {
					defer fault.Reset()
					// twin[0] takes the two functions, twin[1] one-item ApplyBatch.
					var twin [2]*Index
					var reps [2]*Replication
					for i := range twin {
						twin[i] = st.open(t, &Config{Shards: shards})
						defer twin[i].Close()
						if replicate {
							var err error
							if reps[i], err = twin[i].EnableReplication(nil); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, s := range st.steps {
						if s.arm {
							fault.Enable("store.log.sync", fault.Spec{Action: fault.ActError})
						}
						var stats [2]query.Stats
						var errs [2]error
						var frames [2]int64
						for i, ix := range twin {
							if replicate {
								frames[i] = reps[i].FramesAppended()
							}
							var batch []query.Stats
							switch {
							case s.del != 0 && i == 0:
								stats[i], errs[i] = query.Delete(ix.inner, s.del)
							case s.del != 0:
								batch, errs[i] = ix.inner.ApplyBatch(nil, []uint64{s.del})
							case i == 0:
								stats[i], errs[i] = query.Insert(ix.inner, s.insert)
							default:
								batch, errs[i] = ix.inner.ApplyBatch([]*Object{s.insert}, nil)
							}
							if len(batch) == 1 {
								stats[i] = batch[0]
							}
							if replicate {
								frames[i] = reps[i].FramesAppended() - frames[i]
							}
						}
						fault.Reset()

						for i, err := range errs {
							if got := errClass(err); got != s.want {
								t.Fatalf("%s: twin %d answered %q (%v), want %q", s.name, i, got, err, s.want)
							}
						}
						var be *BatchError
						if errors.As(errs[0], &be) {
							t.Errorf("%s: the single-mutation function returned a *BatchError: %v", s.name, errs[0])
						}
						if refused := s.want != "ok" && s.want != "degraded"; refused && !errors.As(errs[1], &be) {
							t.Errorf("%s: one-item ApplyBatch refusal is %v, want a *BatchError", s.name, errs[1])
						}
						if stats[0].ObjectAccesses != stats[1].ObjectAccesses {
							t.Errorf("%s: %d object accesses through the function, %d through ApplyBatch",
								s.name, stats[0].ObjectAccesses, stats[1].ObjectAccesses)
						}
						if s.del != 0 && s.want == "ok" && stats[0].ObjectAccesses != 1 {
							t.Errorf("%s: a delete charged %d object accesses, want 1 (the locate probe)", s.name, stats[0].ObjectAccesses)
						}
						wantFrames := int64(0)
						if replicate && s.want == "ok" {
							wantFrames = 1
						}
						if frames[0] != wantFrames || frames[1] != wantFrames {
							t.Errorf("%s: replication frames appended %v, want %d each", s.name, frames, wantFrames)
						}
						if twin[0].Len() != twin[1].Len() {
							t.Fatalf("%s: populations diverge: %d vs %d", s.name, twin[0].Len(), twin[1].Len())
						}
					}
					if a, b := twin[0].TotalObjectAccesses(), twin[1].TotalObjectAccesses(); a != b {
						t.Errorf("store access totals diverge: %d through the functions, %d through ApplyBatch", a, b)
					}
				})
			}
		}
	}
}
