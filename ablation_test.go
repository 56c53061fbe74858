// Ablation benchmarks for the design knobs DESIGN.md calls out, beyond the
// paper's own figures:
//
//   - R-tree node capacity C_max (the cost model's key constant),
//   - storage backend (in-memory vs on-disk vs on-disk + LRU cache) — this
//     recovers the paper's IO-bound running-time trends that an in-memory
//     store hides,
//   - index construction (STR bulk load vs repeated Guttman insertion).
package fuzzyknn

import (
	"fmt"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/bench"
	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/query"
	"fuzzyknn/internal/store"
)

func ablationObjects(b *testing.B) []*Object {
	b.Helper()
	p := dataset.Default(dataset.Synthetic)
	p.N = 1000
	p.PointsPerObject = 256
	p.Space = 14 // paper density at this N
	p.Seed = 5
	objs, err := dataset.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return objs
}

func ablationQuery(b *testing.B) *Object {
	b.Helper()
	p := dataset.Default(dataset.Synthetic)
	p.PointsPerObject = 256
	p.Space = 14
	p.Seed = 5
	q, err := dataset.GenerateQuery(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func BenchmarkAblationNodeCapacity(b *testing.B) {
	objs := ablationObjects(b)
	q := ablationQuery(b)
	for _, cmax := range []int{8, 16, 64, 256} {
		b.Run(fmt.Sprintf("cmax=%d", cmax), func(b *testing.B) {
			idx, err := NewIndex(objs, &Config{NodeMin: cmax * 2 / 5, NodeMax: cmax})
			if err != nil {
				b.Fatal(err)
			}
			var accesses, nodes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := idx.AKNN(q, bench.DefaultK, bench.DefaultAlpha, LB)
				if err != nil {
					b.Fatal(err)
				}
				accesses += int64(st.ObjectAccesses)
				nodes += int64(st.NodeAccesses)
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "objacc/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodeacc/op")
		})
	}
}

func BenchmarkAblationStorage(b *testing.B) {
	objs := ablationObjects(b)
	q := ablationQuery(b)
	path := filepath.Join(b.TempDir(), "ablation.fzs")
	if err := SaveObjects(path, 2, objs); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, idx *Index) {
		var accesses int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := idx.AKNN(q, bench.DefaultK, bench.DefaultAlpha, LB)
			if err != nil {
				b.Fatal(err)
			}
			accesses += int64(st.ObjectAccesses)
		}
		b.ReportMetric(float64(accesses)/float64(b.N), "objacc/op")
	}
	b.Run("memory", func(b *testing.B) {
		idx, err := NewIndex(objs, nil)
		if err != nil {
			b.Fatal(err)
		}
		run(b, idx)
	})
	b.Run("disk", func(b *testing.B) {
		idx, err := OpenIndex(path, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		run(b, idx)
	})
	b.Run("disk+lru", func(b *testing.B) {
		idx, err := OpenIndex(path, &Config{CacheSize: 256})
		if err != nil {
			b.Fatal(err)
		}
		defer idx.Close()
		run(b, idx)
	})
}

func BenchmarkAblationIndexBuild(b *testing.B) {
	objs := ablationObjects(b)
	ms, err := store.NewMemStore(objs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bulkload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Build(ms, query.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Build(ms, query.Options{Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
