package fault

import (
	"io"
	"os"
	"path/filepath"
)

// File is the seam the storage layer performs I/O through instead of a
// bare *os.File. It is exactly the subset of *os.File the store uses, so
// *os.File satisfies it directly and WrapFile can interpose failpoints.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Name() string
}

var _ File = (*os.File)(nil)

// WrapFile interposes three failpoints on f, pre-resolved once so each
// operation costs one atomic load when disabled:
//
//	<prefix>.read  — ReadAt  (error fails; torn corrupts silently; stall delays)
//	<prefix>.write — WriteAt and Write (error/short/torn/stall)
//	<prefix>.sync  — Sync    (error fails; stall delays)
//
// The prefix names the artifact role (store.log, store.ckpt, ...), not
// the path, so specs survive across generations and temp files.
func WrapFile(f File, prefix string) File {
	return &faultFile{
		File:  f,
		read:  P(prefix + ".read"),
		write: P(prefix + ".write"),
		sync:  P(prefix + ".sync"),
	}
}

type faultFile struct {
	File
	read, write, sync *Point
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if s, fire := f.read.Eval(); fire {
		switch s.Action {
		case ActStall:
			s.Pause()
		case ActTorn:
			// A torn read returns success with corrupt bytes — the CRC
			// layer above must catch it.
			n, err := f.File.ReadAt(p, off)
			Corrupt(p[:n])
			return n, err
		case ActShort:
			n, err := f.File.ReadAt(p[:len(p)/2], off)
			if err == nil {
				err = s.err()
			}
			return n, err
		default:
			return 0, s.err()
		}
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if s, fire := f.write.Eval(); fire {
		return f.failWrite(s, p, func(b []byte) (int, error) { return f.File.WriteAt(b, off) })
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	if s, fire := f.write.Eval(); fire {
		return f.failWrite(s, p, f.File.Write)
	}
	return f.File.Write(p)
}

// failWrite realizes a fired write action: error persists nothing, short
// persists a strict prefix, torn persists everything with a corrupted
// tail. All three return an error — a write that tore is a write the
// caller must not acknowledge.
func (f *faultFile) failWrite(s Spec, p []byte, do func([]byte) (int, error)) (int, error) {
	switch s.Action {
	case ActStall:
		s.Pause()
		return do(p)
	case ActShort:
		n, err := do(p[:len(p)/2])
		if err == nil {
			err = s.err()
		}
		return n, err
	case ActTorn:
		mangled := make([]byte, len(p))
		copy(mangled, p)
		Corrupt(mangled[len(mangled)/2:])
		n, err := do(mangled)
		if err == nil {
			err = s.err()
		}
		return n, err
	default:
		return 0, s.err()
	}
}

func (f *faultFile) Sync() error {
	if s, fire := f.sync.Eval(); fire {
		if s.Action == ActStall {
			s.Pause()
		} else {
			return s.err()
		}
	}
	return f.File.Sync()
}

// fpDirSync fronts the directory fsync of every Commit. The name is the
// store's — its tests and chaos specs arm it — and page-file commits, which
// publish through the same Temp, sit behind the same point.
var fpDirSync = P("store.dirsync")

// Temp is a file being written at path+".tmp", to be published by rename:
// after a crash the destination holds either its old content or the new,
// never a prefix. It is the one implementation of the temp → fsync → rename
// → directory-fsync sequence behind every manifest, checkpoint, log
// generation and page-file generation.
type Temp struct {
	File // the temp file, behind role's read/write/sync failpoints
	name string
}

// CreateTemp starts (or restarts, truncating debris of a crashed attempt)
// the temp file for path, wired to the <role>.{read,write,sync} failpoints.
func CreateTemp(path, role string) (*Temp, error) {
	name := path + ".tmp"
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Temp{File: WrapFile(f, role), name: name}, nil
}

// Abort discards the temp file. It is safe after a failed Commit.
func (t *Temp) Abort() {
	t.Close()
	os.Remove(t.name)
}

// Commit publishes the temp file at dst: fsync, close, rename (behind the
// rename failpoint; nil for none), directory fsync. The two failure regimes
// need different handling, so committed tells them apart. false: the rename
// never happened — dst is untouched, the temp is gone, a clean abort that is
// safe to retry. true with an error: the rename happened but the directory
// fsync failed, so which content survives a power loss is unknowable; the
// caller must either unlink dst (nothing refers to it yet) or stop
// acknowledging on top of it.
func (t *Temp) Commit(dst string, rename *Point) (committed bool, err error) {
	err = t.Sync()
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	if err == nil && rename != nil {
		err = rename.Err()
	}
	if err == nil {
		err = os.Rename(t.name, dst)
	}
	if err != nil {
		os.Remove(t.name)
		return false, err
	}
	if err := fpDirSync.Err(); err != nil {
		return true, err
	}
	d, err := os.Open(filepath.Dir(dst))
	if err != nil {
		return true, err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return true, err
}

// Publish writes a whole file through a Temp: write streams the content
// (buffering is its business; it must flush before returning) and Commit
// publishes it at path. See Commit for committed.
func Publish(path, role string, rename *Point, write func(File) error) (committed bool, err error) {
	t, err := CreateTemp(path, role)
	if err != nil {
		return false, err
	}
	if err := write(t); err != nil {
		t.Abort()
		return false, err
	}
	return t.Commit(path, rename)
}

// Corrupt flips the low bit of every byte in b — the canonical torn-bytes
// mangling (deterministic, non-empty change for any length > 0), shared by
// seams that carry payloads outside the File interface (e.g. the replica
// transport).
func Corrupt(b []byte) {
	for i := range b {
		b[i] ^= 0x01
	}
}
