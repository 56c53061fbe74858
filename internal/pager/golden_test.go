package pager

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fuzzyknn/internal/golden"
)

// goldenPayload is page i's payload in the reference generation.
func goldenPayload(i int) []byte {
	p := make([]byte, 40+i)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// TestCompatManifest: testdata/compat holds the reference generation as
// the two older versions wrote it: v2/ before the R-tree leaf record
// widened, v3/ before it widened again. The page frame is the same, so
// each must decode as its version, re-encode byte-identically and serve
// its pages.
func TestCompatManifest(t *testing.T) {
	for _, version := range []uint32{2, 3} {
		src := filepath.Join("testdata/compat", fmt.Sprintf("v%d", version))
		ref := golden.Read(t, ManifestPath(filepath.Join(src, "pages.fzp")))
		m, err := decodeManifest(ref)
		if err != nil {
			t.Fatalf("version-%d manifest does not decode: %v", version, err)
		}
		if m.Version != version || !bytes.Equal(encodeManifest(m), ref) {
			t.Fatalf("version-%d manifest decodes as version %d or does not re-encode byte-identically", version, m.Version)
		}
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		f, err := Open(filepath.Join(dir, "pages.fzp"))
		if err != nil {
			t.Fatalf("version-%d generation does not reopen: %v", version, err)
		}
		buf := make([]byte, m.PageSize)
		for i := 0; i < int(m.PageCount); i++ {
			_, count, payload, err := f.ReadPage(uint32(i), buf)
			if want := goldenPayload(i); err != nil || int(count) != i+1 || !bytes.Equal(payload[:len(want)], want) {
				t.Fatalf("version %d, page %d: %v, or different content than was written", version, i, err)
			}
		}
		f.Close()
	}
}

// TestGoldenFormats pins FZPGMAN1 and the page frame (see package golden
// for where the reference bytes come from): the running code must write the
// reference generation again, decode and re-encode the reference manifest
// unchanged, and serve the reference pages.
func TestGoldenFormats(t *testing.T) {
	const pages = 3
	fresh := t.TempDir()
	w, err := NewWriter(filepath.Join(fresh, "pages.fzp"), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		flags := LeafPage
		if i == 0 {
			flags = 0
		}
		if _, err := w.WritePage(flags, uint16(i+1), goldenPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(Manifest{RootPage: 0, Dims: 2, Height: 2, MinEntries: 1, MaxEntries: 2, Objects: 5}); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, fresh, nil)

	ref := golden.Read(t, ManifestPath(filepath.Join(golden.Dir, "pages.fzp")))
	m, err := decodeManifest(ref)
	if err != nil {
		t.Fatalf("reference manifest does not decode: %v", err)
	}
	if !bytes.Equal(encodeManifest(m), ref) {
		t.Error("manifest does not re-encode byte-identically")
	}

	f, err := Open(filepath.Join(golden.Copy(t), "pages.fzp"))
	if err != nil {
		t.Fatalf("reference generation does not reopen: %v", err)
	}
	defer f.Close()
	if got := f.Manifest(); got != m || got.Generation != 1 || got.PageCount != pages {
		t.Fatalf("reopened manifest %+v, reference %+v", got, m)
	}
	buf := make([]byte, m.PageSize)
	for i := 0; i < pages; i++ {
		_, count, payload, err := f.ReadPage(uint32(i), buf)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := goldenPayload(i)
		if int(count) != i+1 || !bytes.Equal(payload[:len(want)], want) {
			t.Fatalf("page %d serves different content than was written", i)
		}
	}
}
