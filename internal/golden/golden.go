// Package golden is the test support behind the format pin tests: each
// package that owns an on-disk or wire format rebuilds its artifacts from
// fixed seeds and checks them against the reference bytes checked in under
// its testdata/golden.
//
// The reference bytes were written by the commit before the codec and
// publish consolidation (the pin tests ran there with -update-golden), so
// they prove the consolidation changed no format. Regenerate them only in a
// commit whose point is a format change, or one that changes what a format
// carries without changing the format (internal/query's page file after the
// closed-form §3.2 line fit, internal/store's log directory once a
// checkpoint became one commit); such a commit keeps the older bytes as a
// compatibility fixture that the running code must still read.
package golden

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite testdata/golden from the running code")

// Dir is where a package keeps its reference artifacts.
const Dir = "testdata/golden"

// Check requires the artifacts under fresh to be the reference set: the
// same relative file names holding the same bytes. mask (nil for none)
// returns the bytes to compare, so a format with a wall-clock field can
// blank it. Under -update-golden it replaces the reference set with fresh
// and skips the rest of the test instead.
func Check(t *testing.T, fresh string, mask func(rel string, b []byte) []byte) {
	t.Helper()
	if *update {
		if err := os.RemoveAll(Dir); err != nil {
			t.Fatal(err)
		}
		copyTree(t, fresh, Dir)
		t.Skip("reference artifacts rewritten")
	}
	names := Files(t, Dir)
	if got := Files(t, fresh); !slices.Equal(got, names) {
		t.Fatalf("artifact set changed:\n got %v\nwant %v", got, names)
	}
	for _, rel := range names {
		want, got := Read(t, filepath.Join(Dir, rel)), Read(t, filepath.Join(fresh, rel))
		if mask != nil {
			want, got = mask(rel, want), mask(rel, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the running code writes different bytes than the reference", rel)
		}
	}
}

// Files lists the regular files under root, relative to it and sorted.
func Files(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, p)
		out = append(out, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// Read returns a file's bytes.
func Read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Copy returns a scratch copy of the reference set, for tests that open it
// in place (recovery may truncate, sweep or rewrite what it opens).
func Copy(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	copyTree(t, Dir, dst)
	return dst
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	for _, rel := range Files(t, src) {
		to := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, Read(t, filepath.Join(src, rel)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
