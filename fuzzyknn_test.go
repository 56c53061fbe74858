package fuzzyknn

import (
	"math"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/dataset"
)

func smallDataset(t testing.TB, n int, seed uint64) ([]*Object, *Object) {
	t.Helper()
	p := dataset.Default(dataset.Synthetic)
	p.N = n
	p.PointsPerObject = 48
	p.Space = 12
	p.Quantize = 12
	p.Seed = seed
	objs, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := dataset.GenerateQuery(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return objs, q
}

func TestPublicAKNNEndToEnd(t *testing.T) {
	objs, q := smallDataset(t, 60, 1)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Len() != 60 || idx.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", idx.Len(), idx.Dims())
	}
	want, _, err := idx.LinearScanAKNN(q, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []AKNNAlgorithm{Basic, LB, LBLP, LBLPUB} {
		got, stats, err := idx.AKNN(q, 8, 0.5, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		refined, _, err := idx.Refine(q, 0.5, got)
		if err != nil {
			t.Fatal(err)
		}
		if len(refined) != len(want) {
			t.Fatalf("%v: %d results, want %d", algo, len(refined), len(want))
		}
		for i := range refined {
			if math.Abs(refined[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v: dist[%d] = %v, want %v", algo, i, refined[i].Dist, want[i].Dist)
			}
		}
		if stats.Duration <= 0 {
			t.Fatalf("%v: no duration", algo)
		}
	}
	if idx.TotalObjectAccesses() == 0 {
		t.Fatal("no accesses recorded across queries")
	}
}

func TestPublicDiskIndexMatchesMemory(t *testing.T) {
	objs, q := smallDataset(t, 40, 2)
	mem, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "objects.fzs")
	if err := SaveObjects(path, 2, objs); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenIndex(path, &Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	a, _, err := mem.AKNN(q, 5, 0.7, LB)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := disk.AKNN(q, 5, 0.7, LB)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
			t.Fatalf("disk result %d = %+v, mem %+v", i, b[i], a[i])
		}
	}

	r1, _, err := mem.RKNN(q, 3, 0.3, 0.8, RSSICR)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := disk.RKNN(q, 3, 0.3, 0.8, RSSICR)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("RKNN counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID || !r1[i].Qualifying.Equal(r2[i].Qualifying) {
			t.Fatalf("RKNN result %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestPublicRKNNConsistency(t *testing.T) {
	objs, q := smallDataset(t, 50, 3)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := idx.RKNN(q, 4, 0.2, 0.9, BasicRKNN)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []RKNNAlgorithm{Naive, RSS, RSSICR} {
		got, _, err := idx.RKNN(q, 4, 0.2, 0.9, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got) != len(base) {
			t.Fatalf("%v: %d results, want %d", algo, len(got), len(base))
		}
		for i := range got {
			if got[i].ID != base[i].ID || !got[i].Qualifying.Equal(base[i].Qualifying) {
				t.Fatalf("%v: result %d = %v, want %v", algo, i, got[i], base[i])
			}
		}
	}
}

func TestPublicObjectConstruction(t *testing.T) {
	// Errors surface for invalid objects.
	if _, err := NewObject(1, nil); err == nil {
		t.Error("empty object accepted")
	}
	if _, err := NewObject(1, []WeightedPoint{{P: Point{0, 0}, Mu: 0.5}}); err == nil {
		t.Error("kernel-less object accepted")
	}
	o, err := NewObject(1, []WeightedPoint{
		{P: Point{0, 0}, Mu: 1},
		{P: Point{1, 0}, Mu: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewObject(2, []WeightedPoint{{P: Point{3, 0}, Mu: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := AlphaDistance(o, q, 0.4); math.Abs(d-2) > 1e-12 {
		t.Fatalf("AlphaDistance at 0.4 = %v, want 2", d)
	}
	if d := AlphaDistance(o, q, 0.8); math.Abs(d-3) > 1e-12 {
		t.Fatalf("AlphaDistance at 0.8 = %v, want 3", d)
	}
	prof := DistanceProfile(o, q)
	if got := prof.Dist(0.4); math.Abs(got-2) > 1e-12 {
		t.Fatalf("profile dist = %v", got)
	}
}

func TestPublicObjectFetch(t *testing.T) {
	objs, _ := smallDataset(t, 10, 4)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := idx.Object(objs[3].ID())
	if err != nil {
		t.Fatal(err)
	}
	if o.ID() != objs[3].ID() {
		t.Fatal("wrong object returned")
	}
	if _, err := idx.Object(999999); err == nil {
		t.Fatal("missing id should error")
	}
}

func TestPublicDeterministicAcrossConfigs(t *testing.T) {
	// Different R-tree shapes must not change answers.
	objs, q := smallDataset(t, 70, 5)
	a, err := NewIndex(objs, &Config{NodeMin: 2, NodeMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIndex(objs, &Config{NodeMin: 10, NodeMax: 32, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	ra, _, _ := a.AKNN(q, 6, 0.6, LB)
	rb, _, _ := b.AKNN(q, 6, 0.6, LB)
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatalf("tree shape changed results: %v vs %v", ra[i], rb[i])
		}
	}
}

func BenchmarkPublicAKNN(b *testing.B) {
	objs, q := smallDataset(b, 500, 6)
	idx, err := NewIndex(objs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.AKNN(q, 10, 0.5, LBLPUB); err != nil {
			b.Fatal(err)
		}
	}
}
