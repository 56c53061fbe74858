package bench

import (
	"context"
	"fmt"
	"time"

	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/engine"
	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

// The shards experiment quantifies the sharded coordinator against the
// single tree on the §5 workload (ideal fuzzy objects at the scale's
// defaults): per-query latency and object accesses of serial AKNN, plus
// batch throughput through the engine. Object accesses are the exactness
// story: a sharded AKNN is the single-tree search over the forest of shard
// trees, so its count equals the single tree's LB count at any shard count
// (the shards=1 column runs LB-LP-UB, whose lazy probing may save a probe
// or two on top). Throughput is the parallelism story and only separates
// on multi-core hosts (GOMAXPROCS is recorded in the -json report).

// shardCounts compared by the experiment.
var shardCounts = []int{1, 4}

func shardsExp(s Scale) (*Table, error) {
	w := defaultWorkload(s, dataset.Ideal)
	p := dataset.Default(w.Kind)
	p.N = w.N
	p.PointsPerObject = w.Pts
	p.Space = w.Space
	p.Seed = w.Seed
	objs, err := dataset.Generate(p)
	if err != nil {
		return nil, err
	}
	ms, err := store.NewMemStore(objs)
	if err != nil {
		return nil, err
	}
	qs := make([]*fuzzy.Object, w.Queries)
	for i := range qs {
		if qs[i], err = dataset.GenerateQuery(p, i); err != nil {
			return nil, err
		}
	}

	xs := make([]string, len(shardCounts))
	latency := make([]float64, len(shardCounts))
	accesses := make([]float64, len(shardCounts))
	throughput := make([]float64, len(shardCounts))
	for i, n := range shardCounts {
		xs[i] = fmt.Sprintf("shards=%d", n)
		var ix query.Searcher
		if n == 1 {
			ix, err = query.Build(ms, query.Options{})
		} else {
			ix, err = query.BuildSharded(ms, n, query.Options{})
		}
		if err != nil {
			return nil, err
		}
		if latency[i], accesses[i], err = measureSerialAKNN(ix, qs, DefaultK, DefaultAlpha); err != nil {
			return nil, err
		}
		if throughput[i], err = measureBatchAKNN(ix, qs, DefaultK, DefaultAlpha); err != nil {
			return nil, err
		}
	}
	return &Table{
		ID:     "shards",
		Title:  fmt.Sprintf("Sharded fan-out vs single tree — ideal objects, N=%d, k=%d, α=%g", w.N, DefaultK, DefaultAlpha),
		XLabel: "layout",
		X:      xs,
		YLabel: "ms/query · object accesses/query · batch qps",
		Series: []Series{
			{Label: "AKNN latency [ms/query]", Y: latency},
			{Label: "AKNN object accesses/query", Y: accesses},
			{Label: "batch throughput [qps]", Y: throughput},
		},
	}, nil
}

// measureSerialAKNN averages one-at-a-time AKNN cost over the queries,
// repeated for a minimum wall time so small workloads don't under-sample.
func measureSerialAKNN(ix query.Searcher, qs []*fuzzy.Object, k int, alpha float64) (msPerQuery, accPerQuery float64, err error) {
	const minDuration = 200 * time.Millisecond
	var n int
	var accesses int64
	started := time.Now()
	for time.Since(started) < minDuration || n < len(qs) {
		_, st, err := ix.AKNN(qs[n%len(qs)], k, alpha, query.LBLPUB)
		if err != nil {
			return 0, 0, err
		}
		accesses += int64(st.ObjectAccesses)
		n++
	}
	elapsed := time.Since(started)
	return float64(elapsed.Microseconds()) / 1000 / float64(n), float64(accesses) / float64(n), nil
}

// measureBatchAKNN pushes repeated batches through the engine at default
// parallelism and reports queries per second.
func measureBatchAKNN(ix query.Searcher, qs []*fuzzy.Object, k int, alpha float64) (float64, error) {
	eng := engine.New(ix, engine.Options{})
	defer eng.Close()
	reqs := make([]engine.Request, 0, len(qs)*4)
	for rep := 0; rep < 4; rep++ {
		for _, q := range qs {
			reqs = append(reqs, engine.Request{
				Kind: engine.AKNN, Q: q, K: k, Alpha: alpha, AKNNAlgo: query.LBLPUB,
			})
		}
	}
	const minDuration = 300 * time.Millisecond
	var n int
	started := time.Now()
	for time.Since(started) < minDuration {
		for _, resp := range eng.DoBatch(context.Background(), reqs) {
			if resp.Err != nil {
				return 0, resp.Err
			}
		}
		n += len(reqs)
	}
	return float64(n) / time.Since(started).Seconds(), nil
}
