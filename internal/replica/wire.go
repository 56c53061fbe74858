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
//
// The object encoding is the store's record payload minus its trailing CRC
// (frames carry their own), so a frame is self-describing and survives
// process boundaries unchanged.
//
// /replication/log answers a stream of the frames a follower asked for.
// /replication/checkpoint answers a snapshot in the same grammar: a stream
// whose frames all carry its latest sequence and only insert, together
// holding the live set in frames of at most snapshotChunk payload bytes.
//
// A stream carries the leader's generation token — drawn fresh at every
// leader start — and the sequence it is valid at. A follower that observes
// a different generation than the one it bootstrapped from must
// re-bootstrap: its applied sequence numbers a different history.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"fuzzyknn/internal/codec"
	"fuzzyknn/internal/fuzzy"
)

var streamMagic = []byte("FZKNRL01")

// ErrCorrupt reports a frame, stream or snapshot that does not decode:
// truncated, bad magic, CRC mismatch, an object that fails validation, or
// a snapshot frame off the snapshot's sequence or carrying deletes.
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
	frameHeaderSize  = 8 + 4 + 4 + 4
	streamHeaderSize = 8 + 8 + 8 + 4
	crcSize          = 4
	// maxFramePayload bounds a single decoded frame payload; a frame is one
	// commit group, which the write path keeps far smaller than this.
	maxFramePayload = 1 << 30
	// snapshotChunk bounds a snapshot frame's payload, but for an object
	// larger than it, which travels in a frame of its own.
	snapshotChunk = 4 << 20
)

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
	size := frameHeaderSize + objectsSize(inserts) + 8*len(deletes) + crcSize
	return appendFrame(make([]byte, 0, size), seq, inserts, deletes)
}

// appendFrame appends one frame to buf.
func appendFrame(buf []byte, seq uint64, inserts []*fuzzy.Object, deletes []uint64) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(inserts)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deletes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(objectsSize(inserts)+8*len(deletes)))
	buf = appendObjects(buf, inserts)
	for _, id := range deletes {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// Frame is one decoded mutation group. InsertCRCs[i] is the wire checksum
// of Inserts[i], the identity a follower tracks per live object so that a
// re-bootstrap applies only what changed.
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
	size := streamHeaderSize
	for _, f := range frames {
		size += len(f)
	}
	buf := appendStreamHeader(make([]byte, 0, size), gen, latest, len(frames))
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// appendStreamHeader appends a stream's magic, generation, latest sequence
// and frame count to buf.
func appendStreamHeader(buf []byte, gen, latest uint64, count int) []byte {
	buf = append(buf, streamMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, latest)
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// DecodeStream decodes a full /replication/log response body (and the
// stream a snapshot is; see DecodeSnapshot).
func DecodeStream(b []byte) (gen, latest uint64, frames []Frame, err error) {
	if len(b) < streamHeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: stream header truncated", ErrCorrupt)
	}
	if string(b[:len(streamMagic)]) != string(streamMagic) {
		return 0, 0, nil, fmt.Errorf("%w: bad stream magic", ErrCorrupt)
	}
	gen = binary.LittleEndian.Uint64(b[8:])
	latest = binary.LittleEndian.Uint64(b[16:])
	count := int(binary.LittleEndian.Uint32(b[24:]))
	pos := streamHeaderSize
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

// EncodeSnapshot renders a full-state snapshot at (gen, seq) as a stream:
// every live object, sorted by id by the caller for determinism, in
// insert-only frames that all carry seq. Each frame's payload stays within
// snapshotChunk, so no live set outgrows a frame's u32 length; an object
// larger than that travels in a frame of its own.
func EncodeSnapshot(gen, seq uint64, objs []*fuzzy.Object) []byte {
	var chunks [][]*fuzzy.Object
	for lo := 0; lo < len(objs); {
		hi, payload := lo+1, 4+codec.Size(objs[lo])
		for ; hi < len(objs) && payload+4+codec.Size(objs[hi]) <= snapshotChunk; hi++ {
			payload += 4 + codec.Size(objs[hi])
		}
		chunks = append(chunks, objs[lo:hi])
		lo = hi
	}
	size := streamHeaderSize + objectsSize(objs) + len(chunks)*(frameHeaderSize+crcSize)
	buf := appendStreamHeader(make([]byte, 0, size), gen, seq, len(chunks))
	for _, c := range chunks {
		buf = appendFrame(buf, seq, c, nil)
	}
	return buf
}

// Snapshot is a decoded full-state snapshot. CRCs[i] is the wire checksum
// of Objects[i].
type Snapshot struct {
	Gen     uint64
	Seq     uint64
	Objects []*fuzzy.Object
	CRCs    []uint32
}

// DecodeSnapshot decodes a full /replication/checkpoint response body: a
// stream whose every frame sits at the stream's latest sequence and only
// inserts.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	gen, latest, frames, err := DecodeStream(b)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s := &Snapshot{Gen: gen, Seq: latest}
	for i, fr := range frames {
		switch {
		case fr.Seq != latest:
			return nil, fmt.Errorf("%w: snapshot frame %d at seq %d, the snapshot's is %d", ErrCorrupt, i, fr.Seq, latest)
		case len(fr.Deletes) > 0:
			return nil, fmt.Errorf("%w: snapshot frame %d carries %d deletes", ErrCorrupt, i, len(fr.Deletes))
		}
		s.Objects = append(s.Objects, fr.Inserts...)
		s.CRCs = append(s.CRCs, fr.InsertCRCs...)
	}
	return s, nil
}
