// Package pager provides the on-disk page tier for serving R-tree indexes
// larger than RAM: a fixed-size-page file format with per-page CRCs, a
// small manifest that is the atomic commit point (mirroring the checkpoint
// manifest discipline), and a sharded block cache with pinning and
// singleflight miss-filling.
//
// A page file is pageCount pages of pageSize bytes each. Every page starts
// with an 8-byte header — CRC-32 (IEEE) of the rest of the page, a flags
// word and an entry count — followed by a payload whose layout belongs to
// the caller (internal/query encodes R-tree nodes into it). The manifest
// lives at <path>.manifest and binds {generation, page size, page count,
// root page, dims, tree shape, object count}; generation G's page data
// lives at <path>.g<G>, so publishing a rewrite never touches the previous
// generation's bytes — the manifest rename is the one commit point, and a
// failure (or crash) anywhere before it leaves the old generation fully
// intact with the half-published new one as sweepable debris.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fuzzyknn/internal/fault"
)

// Page-file format constants.
const (
	manifestMagic = "FZPGMAN1"
	// Version is the manifest version Commit writes. Version 2 moved page
	// data from <path> to the generation-numbered <path>.g<G>, closing the
	// crash window between data rename and manifest publish that version 1
	// had. Versions 3 and 4 each widened the R-tree leaf record in the
	// payload (the witness group, then the radial line); the page frame and
	// the manifest are unchanged, so versions 2 to 4 read alike here and
	// Manifest.Version tells the payload's reader which it holds.
	Version = 4
	// MinVersion is the oldest version Open reads.
	MinVersion = 2

	// PageHeaderSize is the per-page overhead: crc32 (4) + flags (2) +
	// entry count (2).
	PageHeaderSize = 8

	// PageAlign is the granularity page sizes are rounded up to.
	PageAlign = 4096

	// maxPageSize bounds manifest plausibility checks.
	maxPageSize = 1 << 28

	manifestSize = len(manifestMagic) + 8*4 + 2*8 + 4 // magic + eight u32 + two u64 + crc
)

// LeafPage marks a page holding leaf entries (clear = interior entries).
const LeafPage uint16 = 1 << 0

// ErrCorrupt reports a page file or manifest that failed an integrity
// check: bad magic, checksum mismatch, truncated data, or implausible
// header fields. Errors wrap it, so test with errors.Is.
var ErrCorrupt = errors.New("pager: corrupt page file")

// Manifest describes one committed page-file generation.
type Manifest struct {
	Version    uint32 // format version; Commit writes Version when it is 0
	Generation uint64 // increments on every rewrite of the same path
	PageSize   uint32
	PageCount  uint32
	RootPage   uint32
	Dims       uint32
	Height     uint32 // tree levels; 1 = root is a leaf
	MinEntries uint32
	MaxEntries uint32
	Objects    uint64 // leaf entries reachable from the root
}

// ManifestPath returns the manifest path for a page file path.
func ManifestPath(path string) string { return path + ".manifest" }

// PageFilePath returns where generation gen's page data lives (the
// manifest at ManifestPath names the live generation).
func PageFilePath(path string, gen uint64) string {
	return fmt.Sprintf("%s.g%d", path, gen)
}

func encodeManifest(m Manifest) []byte {
	buf := make([]byte, manifestSize)
	copy(buf, manifestMagic)
	off := len(manifestMagic)
	for _, v := range []uint32{m.Version, m.PageSize, m.PageCount, m.RootPage, m.Dims, m.Height, m.MinEntries, m.MaxEntries} {
		binary.LittleEndian.PutUint32(buf[off:], v)
		off += 4
	}
	binary.LittleEndian.PutUint64(buf[off:], m.Generation)
	binary.LittleEndian.PutUint64(buf[off+8:], m.Objects)
	off += 16
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

func decodeManifest(buf []byte) (Manifest, error) {
	var m Manifest
	if len(buf) != manifestSize {
		return m, fmt.Errorf("%w: manifest is %d bytes, want %d", ErrCorrupt, len(buf), manifestSize)
	}
	if string(buf[:len(manifestMagic)]) != manifestMagic {
		return m, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	body := len(buf) - 4
	if got, want := crc32.ChecksumIEEE(buf[:body]), binary.LittleEndian.Uint32(buf[body:]); got != want {
		return m, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	off := len(manifestMagic)
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(buf[off:]); off += 4; return v }
	m.Version = u32()
	m.PageSize = u32()
	m.PageCount = u32()
	m.RootPage = u32()
	m.Dims = u32()
	m.Height = u32()
	m.MinEntries = u32()
	m.MaxEntries = u32()
	m.Generation = binary.LittleEndian.Uint64(buf[off:])
	m.Objects = binary.LittleEndian.Uint64(buf[off+8:])
	if err := m.validate(); err != nil {
		return m, err
	}
	return m, nil
}

// validate rejects manifests whose fields cannot describe a real page file.
func (m Manifest) validate() error {
	switch {
	case m.Version < MinVersion || m.Version > Version:
		return fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, m.Version)
	case m.PageSize < PageHeaderSize || m.PageSize > maxPageSize:
		return fmt.Errorf("%w: implausible page size %d", ErrCorrupt, m.PageSize)
	case m.PageCount == 0:
		return fmt.Errorf("%w: zero pages", ErrCorrupt)
	case m.RootPage >= m.PageCount:
		return fmt.Errorf("%w: root page %d out of range (%d pages)", ErrCorrupt, m.RootPage, m.PageCount)
	case m.Dims > 1<<16:
		return fmt.Errorf("%w: implausible dims %d", ErrCorrupt, m.Dims)
	case m.Height < 1 || m.Height > 64:
		return fmt.Errorf("%w: implausible height %d", ErrCorrupt, m.Height)
	case m.MaxEntries < 2 || m.MinEntries < 1 || m.MinEntries > m.MaxEntries:
		return fmt.Errorf("%w: implausible node capacities min=%d max=%d", ErrCorrupt, m.MinEntries, m.MaxEntries)
	case m.Objects > uint64(m.PageCount)*uint64(m.PageSize):
		return fmt.Errorf("%w: implausible object count %d", ErrCorrupt, m.Objects)
	}
	return nil
}

// ReadManifest reads and validates the manifest for a page file path.
func ReadManifest(path string) (Manifest, error) {
	buf, err := os.ReadFile(ManifestPath(path))
	if err != nil {
		return Manifest{}, err
	}
	return decodeManifest(buf)
}

// Writer streams pages into a new page-file generation. Pages are written
// sequentially (page ids are assigned in write order, starting at 0) into a
// temporary file; Commit publishes it under its generation-numbered name and
// then atomically publishes the manifest — the manifest rename is the commit
// point, exactly like checkpoints, and both go through fault.Temp.
type Writer struct {
	path     string
	f        *fault.Temp
	pageSize uint32
	buf      []byte
	pages    uint32
	err      error
}

// NewWriter starts a page-file generation at path. pageSize is rounded up
// to a PageAlign multiple; every page payload must fit in pageSize -
// PageHeaderSize bytes.
func NewWriter(path string, pageSize uint32) (*Writer, error) {
	pageSize = RoundPageSize(pageSize)
	// Any injected failure here is a clean abort: the generation is only
	// reachable once the manifest commits, so there is nothing to poison.
	f, err := fault.CreateTemp(path, "pager.file")
	if err != nil {
		return nil, err
	}
	return &Writer{path: path, f: f, pageSize: pageSize, buf: make([]byte, pageSize)}, nil
}

// RoundPageSize rounds n up to the next PageAlign multiple (minimum one
// alignment unit).
func RoundPageSize(n uint32) uint32 {
	if n < PageAlign {
		return PageAlign
	}
	return (n + PageAlign - 1) / PageAlign * PageAlign
}

// PageSize returns the (rounded) page size the writer emits.
func (w *Writer) PageSize() uint32 { return w.pageSize }

// WritePage appends one page and returns its page id. The payload is padded
// with zeros to the fixed page size and protected by the page CRC.
func (w *Writer) WritePage(flags uint16, count uint16, payload []byte) (uint32, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > int(w.pageSize)-PageHeaderSize {
		w.err = fmt.Errorf("pager: payload %d bytes exceeds page capacity %d", len(payload), w.pageSize-PageHeaderSize)
		return 0, w.err
	}
	buf := w.buf
	clear(buf)
	binary.LittleEndian.PutUint16(buf[4:], flags)
	binary.LittleEndian.PutUint16(buf[6:], count)
	copy(buf[PageHeaderSize:], payload)
	binary.LittleEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	if _, err := w.f.Write(buf); err != nil {
		w.err = err
		return 0, err
	}
	id := w.pages
	w.pages++
	return id, nil
}

// Commit durably publishes the generation: page data renamed to its
// generation-numbered path first, then the manifest — the manifest rename
// is the commit point. The previous generation's data file is never
// touched until the new manifest is published, so any failure up to that
// moment leaves the old generation intact; the superseded data file is
// unlinked afterwards (and swept by Open if a crash strikes first).
func (w *Writer) Commit(m Manifest) error {
	if w.err != nil {
		w.Abort()
		return w.err
	}
	if m.Version == 0 {
		m.Version = Version
	}
	m.PageSize = w.pageSize
	m.PageCount = w.pages
	m.Generation = 1
	prevGen := uint64(0)
	if prev, err := ReadManifest(w.path); err == nil {
		prevGen = prev.Generation
		m.Generation = prevGen + 1
	}
	if err := m.validate(); err != nil {
		w.Abort()
		return err
	}
	dataPath := PageFilePath(w.path, m.Generation)
	if committed, err := w.f.Commit(dataPath, fault.P("pager.file.rename")); err != nil {
		if committed {
			// Renamed but not durably; no manifest names it yet, so drop it.
			os.Remove(dataPath)
		}
		return err
	}
	committed, err := fault.Publish(ManifestPath(w.path), "pager.manifest", nil, func(f fault.File) error {
		_, err := f.Write(encodeManifest(m))
		return err
	})
	if err != nil {
		// Not committed: the previous manifest is intact and the new data
		// file is debris. Committed: the manifest on disk names the new
		// generation but its directory fsync failed, so which manifest a
		// power loss leaves behind is unknowable — both generations' data
		// files must survive, and the caller hears that the publish is not
		// known durable.
		if !committed {
			os.Remove(dataPath)
		}
		return err
	}
	if prevGen > 0 {
		os.Remove(PageFilePath(w.path, prevGen))
	}
	return nil
}

// Abort discards the in-progress generation.
func (w *Writer) Abort() { w.f.Abort() }

// File is an open page-file generation: the manifest plus random-access,
// CRC-checked page reads. Reads are safe for concurrent use.
type File struct {
	f fault.File
	m Manifest
}

// Open validates the manifest, opens the generation it names and checks
// its size matches pageCount × pageSize exactly. Data files from other
// generations — debris a crashed rewrite can leave — are swept.
func Open(path string) (*File, error) {
	m, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	sweepDebris(path, m.Generation)
	osf, err := os.Open(PageFilePath(path, m.Generation))
	if err != nil {
		return nil, err
	}
	f := fault.WrapFile(osf, "pager.file")
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := int64(m.PageCount) * int64(m.PageSize); st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("%w: page file is %d bytes, manifest wants %d", ErrCorrupt, st.Size(), want)
	}
	return &File{f: f, m: m}, nil
}

// Manifest returns the generation's manifest.
func (f *File) Manifest() Manifest { return f.m }

// ReadPage reads one page into buf (which must be PageSize bytes), checks
// its CRC, and returns the flags, entry count and payload slice (aliasing
// buf).
func (f *File) ReadPage(page uint32, buf []byte) (flags uint16, count uint16, payload []byte, err error) {
	if page >= f.m.PageCount {
		return 0, 0, nil, fmt.Errorf("%w: page %d out of range (%d pages)", ErrCorrupt, page, f.m.PageCount)
	}
	if len(buf) != int(f.m.PageSize) {
		return 0, 0, nil, fmt.Errorf("pager: read buffer is %d bytes, want %d", len(buf), f.m.PageSize)
	}
	if _, err := f.f.ReadAt(buf, int64(page)*int64(f.m.PageSize)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: short read at page %d", ErrCorrupt, page)
		}
		return 0, 0, nil, err
	}
	if got, want := crc32.ChecksumIEEE(buf[4:]), binary.LittleEndian.Uint32(buf); got != want {
		return 0, 0, nil, fmt.Errorf("%w: checksum mismatch at page %d", ErrCorrupt, page)
	}
	return binary.LittleEndian.Uint16(buf[4:]), binary.LittleEndian.Uint16(buf[6:]), buf[PageHeaderSize:], nil
}

// Close closes the page file.
func (f *File) Close() error { return f.f.Close() }

// sweepDebris removes generation data files other than keep, plus a stale
// write temp — the leftovers of a rewrite that crashed before (or after)
// its manifest commit. Best-effort; a failed removal retries next open.
func sweepDebris(path string, keep uint64) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepName := filepath.Base(PageFilePath(path, keep))
	isGen := func(name string) bool {
		suffix := strings.TrimPrefix(name, base+".g")
		if suffix == "" {
			return false
		}
		for _, c := range suffix {
			if c < '0' || c > '9' {
				return false
			}
		}
		return true
	}
	for _, de := range ents {
		name := de.Name()
		if name == base+".tmp" || (strings.HasPrefix(name, base+".g") && name != keepName && isGen(name)) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
