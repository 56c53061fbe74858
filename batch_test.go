package fuzzyknn_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"fuzzyknn"
)

// TestApplyBatchPublicAPI exercises the public group-commit surface: a
// log-backed index under every fsync policy name ingests a batch, survives
// reopen, rejects invalid batches whole with positioned item errors, and
// answers identically to per-op ingestion — across 1 and 4 shards.
func TestApplyBatchPublicAPI(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, name := range []string{"always", "batch", "off"} {
			t.Run(fmt.Sprintf("shards=%d/fsync=%s", shards, name), func(t *testing.T) {
				policy, err := fuzzyknn.ParseFsyncPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := &fuzzyknn.Config{Shards: shards, Fsync: policy}
				path := filepath.Join(t.TempDir(), "objects.fzl")
				idx, err := fuzzyknn.OpenLogIndex(path, 2, cfg)
				if err != nil {
					t.Fatal(err)
				}

				var objs []*fuzzyknn.Object
				for i := uint64(1); i <= 40; i++ {
					objs = append(objs, disk(i, float64(i), float64(i%5)))
				}
				if err := idx.ApplyBatch(objs, nil); err != nil {
					t.Fatalf("batch ingest: %v", err)
				}
				if idx.Len() != 40 {
					t.Fatalf("len = %d after batch ingest", idx.Len())
				}
				// Mixed batch: two fresh inserts, two deletes.
				if err := idx.ApplyBatch(
					[]*fuzzyknn.Object{disk(50, 3.3, 1), disk(51, 4.4, 2)},
					[]uint64{7, 8},
				); err != nil {
					t.Fatalf("mixed batch: %v", err)
				}

				// Invalid batch: every violation reported, nothing applied.
				err = idx.ApplyBatch(
					[]*fuzzyknn.Object{disk(1, 9, 9), disk(60, 1, 1)},
					[]uint64{7, 999},
				)
				var be *fuzzyknn.BatchError
				if !errors.As(err, &be) {
					t.Fatalf("invalid batch: %v, want *BatchError", err)
				}
				if len(be.Items) != 3 { // dup insert 1, dead delete 7, unknown delete 999
					t.Fatalf("item errors = %+v, want 3", be.Items)
				}
				if be.Items[0].Op != fuzzyknn.BatchInsertOp || be.Items[0].Pos != 0 {
					t.Fatalf("first item error = %+v", be.Items[0])
				}
				if !errors.Is(err, fuzzyknn.ErrDuplicate) || !errors.Is(err, fuzzyknn.ErrNotFound) {
					t.Fatalf("batch error must expose causes: %v", err)
				}
				if idx.Len() != 40 {
					t.Fatalf("rejected batch mutated the index: len = %d", idx.Len())
				}

				q := disk(100, 10.2, 0)
				want, _, err := idx.AKNN(q, 5, 0.8, fuzzyknn.LBLPUB)
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.Close(); err != nil {
					t.Fatal(err)
				}

				// Reopen (always under the default policy — the format is
				// policy-independent) and compare answers.
				reopened, err := fuzzyknn.OpenLogIndex(path, 0, &fuzzyknn.Config{Shards: shards})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer reopened.Close()
				if reopened.Len() != 40 {
					t.Fatalf("reopened len = %d", reopened.Len())
				}
				got, _, err := reopened.AKNN(q, 5, 0.8, fuzzyknn.LBLPUB)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("reopened answers %d results, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
						t.Fatalf("reopened result %d = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestParseFsyncPolicy pins the CLI names: two policies, with "batch" a
// legacy spelling of "always".
func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]fuzzyknn.FsyncPolicy{
		"":       fuzzyknn.FsyncAlways,
		"always": fuzzyknn.FsyncAlways,
		"BATCH":  fuzzyknn.FsyncAlways,
		"off":    fuzzyknn.FsyncOff,
	} {
		got, err := fuzzyknn.ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := fuzzyknn.ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if fuzzyknn.FsyncBatch != fuzzyknn.FsyncAlways || fuzzyknn.FsyncOff == fuzzyknn.FsyncAlways {
		t.Fatal("FsyncBatch must alias FsyncAlways, and FsyncOff differ from it")
	}
}
