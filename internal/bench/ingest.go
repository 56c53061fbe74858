package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// The ingest experiment measures write-path throughput (objects/second)
// against the group-commit batch size, for an in-memory index and for a
// log-backed index that fsyncs every commit. Batch size 1 is a group
// commit per object: one writer-lock acquisition, one tree clone, one
// snapshot publish and (log-backed) one fsync each. Larger batches amortize
// all four; the log-backed curve additionally collapses N fsyncs into one,
// which is where the order-of-magnitude win comes from.

// ingestBatchSizes swept by the experiment.
var ingestBatchSizes = []int{1, 16, 64, 256, 1024}

// ingestWorkload sizes the ingest experiment: points per object are kept
// moderate so the sweep measures commit costs, not just summary math.
func ingestWorkload(s Scale) (n, pts int) {
	if s == ScalePaper {
		return 20000, 64
	}
	return 2000, 64
}

func ingestExp(s Scale) (*Table, error) {
	n, pts := ingestWorkload(s)
	p := dataset.Default(dataset.Synthetic)
	p.N = n
	p.PointsPerObject = pts
	p.Space = s.Space()
	p.Seed = 1
	objs, err := dataset.Generate(p)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "fuzzyknn-ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	xs := make([]string, len(ingestBatchSizes))
	mem := make([]float64, len(ingestBatchSizes))
	logged := make([]float64, len(ingestBatchSizes))
	for i, batch := range ingestBatchSizes {
		xs[i] = fmt.Sprint(batch)
		if mem[i], err = repeatIngest(func(int) (float64, error) {
			return ingestMem(objs, batch)
		}); err != nil {
			return nil, err
		}
		if logged[i], err = repeatIngest(func(rep int) (float64, error) {
			return ingestLog(objs, batch, filepath.Join(dir, fmt.Sprintf("ingest-%d-%d.fzl", batch, rep)))
		}); err != nil {
			return nil, err
		}
	}
	return &Table{
		ID:     "ingest",
		Title:  fmt.Sprintf("Ingest throughput vs batch size — N=%d synthetic objects, %d points each", n, pts),
		XLabel: "batch size (1 = one commit per object)",
		X:      xs,
		YLabel: "objects/second",
		Series: []Series{
			{Label: "in-memory [objs/sec]", Y: mem},
			{Label: "log-backed, fsync per commit [objs/sec]", Y: logged},
		},
	}, nil
}

// repeatIngest reruns one ingest configuration (fresh index each time)
// until a minimum wall time has elapsed and reports the best observed
// rate — ingest is deterministic CPU+IO work, so the max filters scheduler
// noise the way bench medians do elsewhere.
func repeatIngest(run func(rep int) (float64, error)) (float64, error) {
	const minDuration = 500 * time.Millisecond
	started := time.Now()
	best := 0.0
	for rep := 0; rep == 0 || time.Since(started) < minDuration; rep++ {
		rate, err := run(rep)
		if err != nil {
			return 0, err
		}
		if rate > best {
			best = rate
		}
	}
	return best, nil
}

// ingestMem ingests the objects into a fresh in-memory index in groups of
// the given size and reports objects/second.
func ingestMem(objs []*fuzzy.Object, batch int) (float64, error) {
	ms, err := store.NewMemStore(nil)
	if err != nil {
		return 0, err
	}
	ix, err := query.Build(ms, query.Options{})
	if err != nil {
		return 0, err
	}
	return ingestInto(ix, objs, batch)
}

// ingestLog is ingestMem against a freshly created log store (SyncAlways:
// every commit is fsync'd before it is acknowledged, so batch size 1 pays
// one fsync per object).
func ingestLog(objs []*fuzzy.Object, batch int, path string) (float64, error) {
	ls, err := store.OpenLog(path, objs[0].Dims())
	if err != nil {
		return 0, err
	}
	defer ls.Close()
	ix, err := query.Build(ls, query.Options{})
	if err != nil {
		return 0, err
	}
	return ingestInto(ix, objs, batch)
}

// ingestInto drives the ingest in ApplyBatch groups of the given size and
// times it.
func ingestInto(ix *query.Index, objs []*fuzzy.Object, batch int) (float64, error) {
	started := time.Now()
	for lo := 0; lo < len(objs); lo += batch {
		hi := min(lo+batch, len(objs))
		if _, err := ix.ApplyBatch(objs[lo:hi], nil); err != nil {
			return 0, err
		}
	}
	return float64(len(objs)) / time.Since(started).Seconds(), nil
}
