// Package replica implements leader–follower replication of committed
// mutation frames.
//
// The unit of replication is the logical frame: one committed mutation
// group (the inserts and deletes of one ApplyBatch, or a single
// Insert/Delete) with a monotonically increasing sequence number. A leader
// appends a frame to its in-memory Log after — and only after — the group
// committed locally; followers stream frames over HTTP and apply each one
// through their own ApplyBatch path, so every frame is one snapshot publish
// on the follower too. Because queries are exact, deterministic functions
// of the live object set, a follower that has applied the same frames as
// the leader answers every query byte-identically.
//
// Wire formats (all integers little-endian, CRC-32 IEEE over everything
// before the checksum):
//
//	object  := a codec body (internal/codec)
//	frame   := seq u64 | nIns u32 | nDel u32 | payloadLen u32 | payload | crc u32
//	payload := nIns × (objLen u32 | object) ++ nDel × (id u64)
//	stream  := "FZKNRL01" | gen u64 | latest u64 | count u32 | count × frame
//	snapshot:= "FZKNRS01" | gen u64 | seq u64 | dims u32 | count u32 |
//	           count × (objLen u32 | object) | crc u32
//
// The object encoding is the store's record payload minus its trailing CRC
// (frames and snapshots carry their own), so a frame is self-describing and
// survives process boundaries unchanged.
//
// A stream and a snapshot both carry the leader's generation token — drawn
// fresh at every leader start — and the sequence they are valid at. A
// follower that observes a different generation than the one it
// bootstrapped from must re-bootstrap: its applied sequence numbers a
// different history.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fuzzy"
)

var (
	streamMagic   = []byte("FZKNRL01")
	snapshotMagic = []byte("FZKNRS01")
)

// ErrCorrupt reports a frame, stream or snapshot that does not decode:
// truncated, bad magic, CRC mismatch, or an object that fails validation.
var ErrCorrupt = errors.New("replica: corrupt replication data")

// ErrTruncated reports a requested sequence that the leader no longer
// retains (or never issued in this generation); the follower must
// re-bootstrap from a snapshot.
var ErrTruncated = errors.New("replica: requested sequence not retained")

// ErrDiverged reports a generation mismatch between follower and leader:
// the leader restarted (or was replaced) and the follower's applied
// sequence numbers a different history. Re-bootstrap.
var ErrDiverged = errors.New("replica: leader generation changed")

const (
	frameHeaderSize = 8 + 4 + 4 + 4
	crcSize         = 4
	// maxFramePayload bounds a single decoded frame payload; a frame is one
	// commit group, which the write path keeps far smaller than this.
	maxFramePayload = 1 << 30
)

// ObjectCRC returns the checksum of o's wire form — the identity a
// follower tracks per live object so a re-bootstrap can be applied as a
// minimal diff.
func ObjectCRC(o *fuzzy.Object) uint32 {
	return codec.Checksum(codec.Append(nil, o))
}

// objectsSize returns the encoded size of an object section: each object
// behind its u32 length.
func objectsSize(objs []*fuzzy.Object) int {
	size := 0
	for _, o := range objs {
		size += 4 + codec.Size(o)
	}
	return size
}

// appendObjects appends an object section to buf.
func appendObjects(buf []byte, objs []*fuzzy.Object) []byte {
	for _, o := range objs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(codec.Size(o)))
		buf = codec.Append(buf, o)
	}
	return buf
}

// decodeObjects decodes the count-object section b[pos:end] opens with,
// returning the objects, their wire checksums and the position after the
// section. Nothing is allocated on the strength of count or of an object's
// header alone: every object is bounded by the bytes actually present.
func decodeObjects(b []byte, pos, end, count int) (objs []*fuzzy.Object, crcs []uint32, next int, err error) {
	for i := 0; i < count; i++ {
		if end-pos < 4 {
			return nil, nil, 0, fmt.Errorf("%w: object %d truncated", ErrCorrupt, i)
		}
		objLen := int(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
		if objLen < 0 || objLen > end-pos {
			return nil, nil, 0, fmt.Errorf("%w: object %d overruns its section", ErrCorrupt, i)
		}
		body := b[pos : pos+objLen]
		o, err := codec.Decode(body)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%w: object %d: %v", ErrCorrupt, i, err)
		}
		objs = append(objs, o)
		crcs = append(crcs, codec.Checksum(body))
		pos += objLen
	}
	return objs, crcs, pos, nil
}

// EncodeFrame renders one committed mutation group as a wire frame.
func EncodeFrame(seq uint64, inserts []*fuzzy.Object, deletes []uint64) []byte {
	payloadLen := objectsSize(inserts) + 8*len(deletes)
	buf := make([]byte, 0, frameHeaderSize+payloadLen+crcSize)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(inserts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deletes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	buf = appendObjects(buf, inserts)
	for _, id := range deletes {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Frame is one decoded mutation group. InsertCRCs[i] is the wire checksum
// of Inserts[i] (see ObjectCRC).
type Frame struct {
	Seq        uint64
	Inserts    []*fuzzy.Object
	InsertCRCs []uint32
	Deletes    []uint64
}

// DecodeFrame decodes one frame from the head of b, returning it and the
// number of bytes consumed.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderSize+crcSize {
		return Frame{}, 0, fmt.Errorf("%w: frame header truncated", ErrCorrupt)
	}
	seq := binary.LittleEndian.Uint64(b[0:])
	nIns := int(binary.LittleEndian.Uint32(b[8:]))
	nDel := int(binary.LittleEndian.Uint32(b[12:]))
	payloadLen := int(binary.LittleEndian.Uint32(b[16:]))
	if payloadLen > maxFramePayload || nIns > payloadLen/4+1 || nDel > payloadLen/8+1 {
		return Frame{}, 0, fmt.Errorf("%w: implausible frame header", ErrCorrupt)
	}
	total := frameHeaderSize + payloadLen + crcSize
	if len(b) < total {
		return Frame{}, 0, fmt.Errorf("%w: frame body truncated", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(b[total-crcSize:])
	if crc32.ChecksumIEEE(b[:total-crcSize]) != want {
		return Frame{}, 0, fmt.Errorf("%w: frame CRC mismatch at seq %d", ErrCorrupt, seq)
	}
	end := frameHeaderSize + payloadLen
	inserts, crcs, pos, err := decodeObjects(b, frameHeaderSize, end, nIns)
	if err != nil {
		return Frame{}, 0, fmt.Errorf("frame seq %d insert section: %w", seq, err)
	}
	f := Frame{Seq: seq, Inserts: inserts, InsertCRCs: crcs}
	if pos+8*nDel != end {
		return Frame{}, 0, fmt.Errorf("%w: frame delete section size mismatch", ErrCorrupt)
	}
	for i := 0; i < nDel; i++ {
		f.Deletes = append(f.Deletes, binary.LittleEndian.Uint64(b[pos:]))
		pos += 8
	}
	return f, total, nil
}

// EncodeStream renders a /replication/log response: the leader generation,
// its latest committed sequence, and the encoded frames.
func EncodeStream(gen, latest uint64, frames [][]byte) []byte {
	size := len(streamMagic) + 8 + 8 + 4
	for _, f := range frames {
		size += len(f)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, streamMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, latest)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frames)))
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// DecodeStream decodes a full /replication/log response body.
func DecodeStream(b []byte) (gen, latest uint64, frames []Frame, err error) {
	if len(b) < len(streamMagic)+8+8+4 {
		return 0, 0, nil, fmt.Errorf("%w: stream header truncated", ErrCorrupt)
	}
	if string(b[:len(streamMagic)]) != string(streamMagic) {
		return 0, 0, nil, fmt.Errorf("%w: bad stream magic", ErrCorrupt)
	}
	pos := len(streamMagic)
	gen = binary.LittleEndian.Uint64(b[pos:])
	latest = binary.LittleEndian.Uint64(b[pos+8:])
	count := int(binary.LittleEndian.Uint32(b[pos+16:]))
	pos += 20
	for i := 0; i < count; i++ {
		f, n, err := DecodeFrame(b[pos:])
		if err != nil {
			return 0, 0, nil, fmt.Errorf("stream frame %d: %w", i, err)
		}
		frames = append(frames, f)
		pos += n
	}
	if pos != len(b) {
		return 0, 0, nil, fmt.Errorf("%w: %d trailing bytes after stream", ErrCorrupt, len(b)-pos)
	}
	return gen, latest, frames, nil
}

// EncodeSnapshot renders a full-state snapshot at (gen, seq): every live
// object, sorted by id by the caller for determinism.
func EncodeSnapshot(gen, seq uint64, dims int, objs []*fuzzy.Object) []byte {
	size := len(snapshotMagic) + 8 + 8 + 4 + 4 + objectsSize(objs)
	buf := make([]byte, 0, size+crcSize)
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(objs)))
	buf = appendObjects(buf, objs)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Snapshot is a decoded full-state snapshot. CRCs[i] is the wire checksum
// of Objects[i].
type Snapshot struct {
	Gen     uint64
	Seq     uint64
	Dims    int
	Objects []*fuzzy.Object
	CRCs    []uint32
}

// DecodeSnapshot decodes a full /replication/checkpoint response body.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	header := len(snapshotMagic) + 8 + 8 + 4 + 4
	if len(b) < header+crcSize {
		return nil, fmt.Errorf("%w: snapshot header truncated", ErrCorrupt)
	}
	if string(b[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(b[len(b)-crcSize:])
	if crc32.ChecksumIEEE(b[:len(b)-crcSize]) != want {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	pos := len(snapshotMagic)
	s := &Snapshot{
		Gen:  binary.LittleEndian.Uint64(b[pos:]),
		Seq:  binary.LittleEndian.Uint64(b[pos+8:]),
		Dims: int(binary.LittleEndian.Uint32(b[pos+16:])),
	}
	count := int(binary.LittleEndian.Uint32(b[pos+20:]))
	end := len(b) - crcSize
	objs, crcs, pos, err := decodeObjects(b, pos+24, end, count)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s.Objects, s.CRCs = objs, crcs
	if pos != end {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", ErrCorrupt, end-pos)
	}
	return s, nil
}
