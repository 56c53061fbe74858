package fuzzyknn

import (
	"math"
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
