package query

import (
	"math/rand/v2"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/store"
)

// BenchmarkReopen measures restart cost: opening a log store and rebuilding
// the in-memory index over it. The live set is fixed; what varies is how
// much history the log carries (churn rounds of delete-all + reinsert-all)
// and whether a checkpoint+compaction ran before the "crash". Without a
// checkpoint, reopen replays the whole history — ns/op grows with churn.
// With one, reopen loads the snapshot and replays only the (empty) suffix,
// so ns/op stays at the 1x-history floor no matter how much history burned:
// that flat line is the O(live) restart claim, CI-gated like the other
// hot-path benchmarks.

const (
	reopenLive      = 512
	reopenChurn     = 5  // 5 rounds of delete+reinsert ≈ 11x the 1x record count
	reopenChurnDeep = 50 // ≈ 101x: a long-lived server's log, replay-dominated
)

// prepareReopenLog writes a log with the given churn, optionally
// checkpointed+compacted, and returns its path.
func prepareReopenLog(b *testing.B, churnRounds int, checkpoint bool) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "objects.fzl")
	s, err := store.OpenLogPolicy(path, 2, store.SyncOff)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	objs := makeObjects(rng, reopenLive, 16, 40, 0)
	// One record per mutation — groups of one — so replay cost scales with
	// the churn.
	for _, o := range objs {
		if err := s.ApplyBatch([]*fuzzy.Object{o}, nil); err != nil {
			b.Fatal(err)
		}
	}
	for round := 0; round < churnRounds; round++ {
		for _, o := range objs {
			if err := s.ApplyBatch(nil, []uint64{o.ID()}); err != nil {
				b.Fatal(err)
			}
			if err := s.ApplyBatch([]*fuzzy.Object{o}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	if checkpoint {
		if _, err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.CompactLog(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func runReopen(b *testing.B, path string) {
	b.ReportAllocs()
	b.ResetTimer()
	replayed := 0
	for i := 0; i < b.N; i++ {
		s, err := store.OpenLogPolicy(path, 0, store.SyncAlways)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := Build(s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if ix.Len() != reopenLive {
			b.Fatalf("len = %d", ix.Len())
		}
		replayed = s.ReplayedRecords()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(replayed), "replayed/op")
}

func BenchmarkReopen(b *testing.B) {
	b.Run("history=1x/checkpoint=off", func(b *testing.B) {
		runReopen(b, prepareReopenLog(b, 0, false))
	})
	b.Run("history=11x/checkpoint=off", func(b *testing.B) {
		runReopen(b, prepareReopenLog(b, reopenChurn, false))
	})
	b.Run("history=11x/checkpoint=on", func(b *testing.B) {
		runReopen(b, prepareReopenLog(b, reopenChurn, true))
	})
	b.Run("history=101x/checkpoint=off", func(b *testing.B) {
		runReopen(b, prepareReopenLog(b, reopenChurnDeep, false))
	})
	b.Run("history=101x/checkpoint=on", func(b *testing.B) {
		runReopen(b, prepareReopenLog(b, reopenChurnDeep, true))
	})
}
