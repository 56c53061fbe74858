package store

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/golden"
)

// buildGolden writes one artifact per store format into dir from fixed
// seeds — a static store, a log directory cut by a checkpoint with put,
// tombstone and batch records on both sides of the cut, and the same
// history after a log compaction — and returns the live set each must
// serve, keyed by its path relative to dir.
func buildGolden(t *testing.T, dir string) map[string]map[uint64]*fuzzy.Object {
	t.Helper()
	rng := rand.New(rand.NewPCG(2010, 12))
	objs := make([]*fuzzy.Object, 13)
	for i := 1; i < len(objs); i++ {
		objs[i] = randObject(rng, uint64(i), 3+rng.IntN(6), 2)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	models := map[string]map[uint64]*fuzzy.Object{}

	must(WriteAll(filepath.Join(dir, "static.fzs"), 2, objs[1:7]))
	models["static.fzs"] = map[uint64]*fuzzy.Object{}
	for _, o := range objs[1:7] {
		models["static.fzs"][o.ID()] = o
	}

	for _, name := range []string{"ckpt", "compacted"} {
		must(os.Mkdir(filepath.Join(dir, name), 0o755))
		s, err := OpenLog(filepath.Join(dir, name, "objects.fzl"), 2)
		must(err)
		for _, o := range objs[1:5] {
			must(insertOne(s, o))
		}
		must(deleteOne(s, 2))
		must(s.ApplyBatch(objs[5:7], []uint64{3}))
		_, err = s.Checkpoint()
		must(err)
		must(insertOne(s, objs[7]))
		must(deleteOne(s, 1))
		must(s.ApplyBatch(objs[8:10], []uint64{4}))
		live := []int{5, 6, 7, 8, 9}
		if name == "compacted" {
			_, err = s.CompactLog()
			must(err)
			must(insertOne(s, objs[10]))
			live = append(live, 10)
		}
		must(s.Close())
		models[name] = map[uint64]*fuzzy.Object{}
		for _, i := range live {
			models[name][uint64(i)] = objs[i]
		}
	}
	return models
}

// TestGoldenFormats pins FZKNNST1, FZKNNLG1, FZKNNCK1 and FZKNNMF1 (see
// package golden for where the reference bytes come from): the running code
// must write the reference bytes again, decode and re-encode the reference
// manifests unchanged, and serve the reference directories' exact live sets.
func TestGoldenFormats(t *testing.T) {
	fresh := t.TempDir()
	models := buildGolden(t, fresh)
	isManifest := func(rel string) bool { return filepath.Ext(rel) == ".manifest" }
	// The manifest stamps the wall-clock time of the checkpoint cut; blank
	// that field and the CRC over it, every other byte must repeat.
	golden.Check(t, fresh, func(rel string, b []byte) []byte {
		if isManifest(rel) && len(b) == manifestSize {
			b = bytes.Clone(b)
			clear(b[56:])
		}
		return b
	})
	for _, rel := range golden.Files(t, golden.Dir) {
		if !isManifest(rel) {
			continue
		}
		man, err := readManifest(filepath.Join(golden.Dir, rel))
		if err != nil || man == nil {
			t.Fatalf("%s: reference manifest does not decode: %v", rel, err)
		}
		if !bytes.Equal(encodeManifest(man), golden.Read(t, filepath.Join(golden.Dir, rel))) {
			t.Errorf("%s: manifest does not re-encode byte-identically", rel)
		}
	}

	work := golden.Copy(t)
	check := func(name string, r Reader) {
		t.Helper()
		want := models[name]
		ids := make([]uint64, 0, len(want))
		for id := range want {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if got := r.IDs(); !slices.Equal(got, ids) {
			t.Fatalf("%s: IDs() = %v, want %v", name, got, ids)
		}
		for _, id := range ids {
			o, err := r.Get(id)
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", name, id, err)
			}
			sameObject(t, o, want[id])
		}
	}
	ds, err := Open(filepath.Join(work, "static.fzs"))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	check("static.fzs", ds)
	for _, name := range []string{"ckpt", "compacted"} {
		s, err := OpenLog(filepath.Join(work, name, "objects.fzl"), 0)
		if err != nil {
			t.Fatalf("%s: reference directory does not reopen: %v", name, err)
		}
		check(name, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
