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
