package store

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fuzzyknn/internal/fuzzy"
	"fuzzyknn/internal/golden"
)

// goldenObjects are the fixed-seed objects the golden and compatibility
// directories are built from, indexed by id (index 0 is unused).
func goldenObjects() []*fuzzy.Object {
	rng := rand.New(rand.NewPCG(2010, 12))
	objs := make([]*fuzzy.Object, 13)
	for i := 1; i < len(objs); i++ {
		objs[i] = randObject(rng, uint64(i), 3+rng.IntN(6), 2)
	}
	return objs
}

// liveSet maps the given ids to their golden objects.
func liveSet(objs []*fuzzy.Object, ids ...int) map[uint64]*fuzzy.Object {
	m := map[uint64]*fuzzy.Object{}
	for _, i := range ids {
		m[uint64(i)] = objs[i]
	}
	return m
}

// buildGolden writes one artifact per store format into dir from fixed
// seeds — a static store, and a log directory whose checkpoint raced a put
// and a tombstone into the log it publishes, with put, tombstone and batch
// records on both sides of the cut — and returns the live set each must
// serve, keyed by its path relative to dir.
func buildGolden(t *testing.T, dir string) map[string]map[uint64]*fuzzy.Object {
	t.Helper()
	objs := goldenObjects()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(WriteAll(filepath.Join(dir, "static.fzs"), 2, objs[1:7]))

	must(os.Mkdir(filepath.Join(dir, "ckpt"), 0o755))
	s, err := OpenLog(filepath.Join(dir, "ckpt", "objects.fzl"), 2)
	must(err)
	for _, o := range objs[1:5] {
		must(insertOne(s, o))
	}
	must(deleteOne(s, 2))
	must(s.ApplyBatch(objs[5:7], []uint64{3}))
	_, err = checkpointWith(s, func() error {
		if err := insertOne(s, objs[7]); err != nil {
			return err
		}
		return deleteOne(s, 1)
	})
	must(err)
	must(s.ApplyBatch(objs[8:10], []uint64{4}))
	must(insertOne(s, objs[10]))
	must(s.Close())
	return map[string]map[uint64]*fuzzy.Object{
		"static.fzs": liveSet(objs, 1, 2, 3, 4, 5, 6),
		"ckpt":       liveSet(objs, 5, 6, 7, 8, 9, 10),
	}
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
	s, err := OpenLog(filepath.Join(work, "ckpt", "objects.fzl"), 0)
	if err != nil {
		t.Fatalf("ckpt: reference directory does not reopen: %v", err)
	}
	check("ckpt", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompatLogDirectories: testdata/compat holds the log directories the
// golden set carried while a checkpoint committed twice — "ckpt" binds the
// base log with a replay tail past its header, "compacted" a log-1 that
// holds only the records the snapshot does not cover. Their formats are
// today's, so the running code must reopen each to its exact live set and,
// after one more Checkpoint, to the same set with the older logs gone.
func TestCompatLogDirectories(t *testing.T) {
	objs := goldenObjects()
	for name, want := range map[string]map[uint64]*fuzzy.Object{
		"ckpt":      liveSet(objs, 5, 6, 7, 8, 9),
		"compacted": liveSet(objs, 5, 6, 7, 8, 9, 10),
	} {
		dir := t.TempDir()
		copyDirFiles(t, filepath.Join("testdata", "compat", name), dir)
		s := mustOpenDir(t, dir, name)
		checkState(t, s, want, name)
		info, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkState(t, s, want, name+" after a checkpoint")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := mustOpenDir(t, dir, name+" after a checkpoint")
		checkState(t, r, want, name+" after a checkpoint, reopened")
		r.Close()
		files := []string{
			fmt.Sprintf("%s.ckpt-%d", ckptTestBase, info.Generation),
			fmt.Sprintf("%s.log-%d", ckptTestBase, info.LogSeq),
			ckptTestBase + ".manifest",
		}
		if got := dirNames(t, dir); !slices.Equal(got, files) {
			t.Fatalf("%s: files after a checkpoint %v, want %v", name, got, files)
		}
	}
}
