package pager

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"fuzzyknn/internal/fault"
)

// TestCommitFaultLeavesPreviousGeneration sweeps injected failures
// through every step of a generation rewrite: the previous generation
// must stay openable and byte-correct, and the failed commit must report
// its cause.
func TestCommitFaultLeavesPreviousGeneration(t *testing.T) {
	// store.dirsync fronts every directory fsync fault.Temp issues; its
	// first evaluation in a rewrite is the data file's, before any manifest
	// names the new generation.
	points := []string{"pager.file.write", "pager.file.sync", "pager.file.rename", "store.dirsync", "pager.manifest.write", "pager.manifest.sync"}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer fault.Reset()
			path := filepath.Join(t.TempDir(), "pages.fzp")
			writePages(t, path, 3).Close()

			fault.Enable(point, fault.Spec{Action: fault.ActError, Nth: 1, Err: syscall.ENOSPC})
			w, err := NewWriter(path, 64)
			if err != nil {
				t.Fatal(err)
			}
			failed := false
			for i := 0; i < 4; i++ {
				if _, err := w.WritePage(LeafPage, 1, []byte{9}); err != nil {
					failed = true
					break
				}
			}
			if !failed {
				err := w.Commit(Manifest{RootPage: 0, Dims: 2, Height: 1, MinEntries: 1, MaxEntries: 2, Objects: 4})
				if err == nil {
					t.Fatalf("%s did not fail the rewrite", point)
				}
				if !errors.Is(err, syscall.ENOSPC) {
					t.Fatalf("commit error %v does not expose the cause", err)
				}
			}
			fault.Reset()

			f, err := Open(path)
			if err != nil {
				t.Fatalf("previous generation unopenable after failed rewrite: %v", err)
			}
			defer f.Close()
			m := f.Manifest()
			if m.Generation != 1 || m.PageCount != 3 {
				t.Fatalf("manifest advanced across a failed commit: %+v", m)
			}
			buf := make([]byte, m.PageSize)
			for page := uint32(0); page < m.PageCount; page++ {
				if _, _, _, err := f.ReadPage(page, buf); err != nil {
					t.Fatalf("page %d unreadable: %v", page, err)
				}
			}
		})
	}
}

// TestManifestDirSyncFailureKeepsNamedGeneration is the one commit fault
// that strikes after the commit point: the manifest has been renamed into
// place when its directory fsync fails. Commit must report the failure (it
// used to swallow it) and must not unlink the generation file the manifest
// on disk now names — that would destroy a live generation; nor the
// previous one, which is what a power loss may still roll back to.
func TestManifestDirSyncFailureKeepsNamedGeneration(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "pages.fzp")
	writePages(t, path, 3).Close()

	w, err := NewWriter(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.WritePage(LeafPage, 1, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	// Second directory fsync of the commit: the manifest's.
	fault.Enable("store.dirsync", fault.Spec{Action: fault.ActError, Nth: 2, Err: syscall.EIO})
	err = w.Commit(Manifest{RootPage: 0, Dims: 2, Height: 1, MinEntries: 1, MaxEntries: 2, Objects: 4})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit swallowed the directory fsync failure: %v", err)
	}
	fault.Reset()

	for gen := uint64(1); gen <= 2; gen++ {
		if _, err := os.Stat(PageFilePath(path, gen)); err != nil {
			t.Errorf("generation %d data file gone after an ambiguous commit: %v", gen, err)
		}
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("the generation the renamed manifest names is unopenable: %v", err)
	}
	defer f.Close()
	if m := f.Manifest(); m.Generation != 2 || m.PageCount != 4 {
		t.Fatalf("manifest on disk: %+v, want generation 2 with 4 pages", m)
	}
	buf := make([]byte, f.Manifest().PageSize)
	for page := uint32(0); page < 4; page++ {
		if _, _, _, err := f.ReadPage(page, buf); err != nil {
			t.Fatalf("page %d unreadable: %v", page, err)
		}
	}
}

// TestTornPageReadSurfacesCorrupt proves the per-page CRC catches a read
// that silently returned flipped bits.
func TestTornPageReadSurfacesCorrupt(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "pages.fzp")
	f := writePages(t, path, 2)
	defer f.Close()

	fault.Enable("pager.file.read", fault.Spec{Action: fault.ActTorn, Nth: 1})
	buf := make([]byte, f.Manifest().PageSize)
	if _, _, _, err := f.ReadPage(0, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn page read returned %v, want ErrCorrupt", err)
	}
	if _, _, _, err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
}
