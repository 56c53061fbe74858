package query

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"fuzzyknn/internal/fuzzy"
)

// Hot-path micro-benchmarks: one per query family, on a fixed mid-size
// workload. These are the benchmarks the CI bench-gate job runs on the PR
// head and on the merge-base (-count=10 each) and compares with benchstat;
// a statistically significant ns/op or allocs/op regression above the
// threshold fails the gate. Keep them fast (the gate runs them 20 times)
// and deterministic: fixed seed, fixed workload, b.ReportAllocs so the
// allocation trajectory is part of every run's output.

const (
	hotN     = 600
	hotPts   = 64
	hotSpace = 12.0
	hotK     = 10
	hotAlpha = 0.5
)

type hotEnv struct {
	ix      *Index
	queries []*fuzzy.Object
}

func newHotEnv(b *testing.B) *hotEnv {
	b.Helper()
	rng := rand.New(rand.NewPCG(7, 11))
	objs := makeObjects(rng, hotN, hotPts, hotSpace, 8)
	ix := buildIndex(b, objs, Options{})
	env := &hotEnv{ix: ix}
	for i := 0; i < 4; i++ {
		env.queries = append(env.queries, makeQuery(rng, hotPts, hotSpace, 8))
	}
	return env
}

func benchmarkHotAKNN(b *testing.B, algo AKNNAlgorithm) {
	env := newHotEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.queries[i%len(env.queries)]
		if _, _, err := env.ix.AKNN(q, hotK, hotAlpha, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathAKNNBasic(b *testing.B)  { benchmarkHotAKNN(b, Basic) }
func BenchmarkHotPathAKNNLB(b *testing.B)     { benchmarkHotAKNN(b, LB) }
func BenchmarkHotPathAKNNLBLP(b *testing.B)   { benchmarkHotAKNN(b, LBLP) }
func BenchmarkHotPathAKNNLBLPUB(b *testing.B) { benchmarkHotAKNN(b, LBLPUB) }

// benchmarkHotSharded runs one query family of the same workload through
// the sharded coordinator at 2 and 4 shards. objacc/op is the paper's cost
// metric; it must read the same at every shard count (and equal the single
// tree's).
func benchmarkHotSharded(b *testing.B, query func(sx *ShardedIndex, q *fuzzy.Object) (Stats, error)) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			env := newHotEnv(b)
			sx, err := BuildSharded(env.ix.Store(), shards, Options{})
			if err != nil {
				b.Fatal(err)
			}
			accesses := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := query(sx, env.queries[i%len(env.queries)])
				if err != nil {
					b.Fatal(err)
				}
				accesses += st.ObjectAccesses
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "objacc/op")
		})
	}
}

func BenchmarkHotPathShardedAKNN(b *testing.B) {
	benchmarkHotSharded(b, func(sx *ShardedIndex, q *fuzzy.Object) (Stats, error) {
		_, st, err := sx.AKNN(q, hotK, hotAlpha, LB)
		return st, err
	})
}

func BenchmarkHotPathShardedRangeSearch(b *testing.B) {
	benchmarkHotSharded(b, func(sx *ShardedIndex, q *fuzzy.Object) (Stats, error) {
		_, st, err := sx.RangeSearch(q, hotAlpha, 1.5)
		return st, err
	})
}

func BenchmarkHotPathShardedRKNN(b *testing.B) {
	benchmarkHotSharded(b, func(sx *ShardedIndex, q *fuzzy.Object) (Stats, error) {
		_, st, err := sx.RKNN(q, hotK, 0.4, 0.6, RSSICR)
		return st, err
	})
}

func BenchmarkHotPathRangeSearch(b *testing.B) {
	env := newHotEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.queries[i%len(env.queries)]
		if _, _, err := env.ix.RangeSearch(q, hotAlpha, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkHotRKNN(b *testing.B, algo RKNNAlgorithm) {
	env := newHotEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.queries[i%len(env.queries)]
		if _, _, err := env.ix.RKNN(q, hotK, 0.4, 0.6, algo); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathRKNNRSS(b *testing.B)    { benchmarkHotRKNN(b, RSS) }
func BenchmarkHotPathRKNNRSSICR(b *testing.B) { benchmarkHotRKNN(b, RSSICR) }

func BenchmarkHotPathReverseKNN(b *testing.B) {
	env := newHotEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.queries[i%len(env.queries)]
		if _, _, err := env.ix.ReverseKNN(q, 4, hotAlpha); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathExpectedDistKNN is the other consumer of the staircase:
// the scan profiles every object against the query, near or far.
func BenchmarkHotPathExpectedDistKNN(b *testing.B) {
	env := newHotEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.queries[i%len(env.queries)]
		if _, _, err := env.ix.ExpectedDistKNN(q, hotK); err != nil {
			b.Fatal(err)
		}
	}
}
