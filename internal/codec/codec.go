// Package codec owns the byte layout of a fuzzy object — the one payload
// every on-disk and wire format of this repository embeds (little-endian):
//
//	body:   id u64 | n u32 | d u32 | coords n*d f64 | mus n f64
//	record: body | crc32 u32 (IEEE, of the body)
//
// Replication frames and snapshots carry bodies (they checksum the enclosing
// frame) and identify an object by its body checksum; the static store, the
// log's put records and checkpoints carry records. Nothing
// outside this package knows the layout: callers size, append, shape-check,
// verify and decode through it, so a bound fixed here holds for every
// format at once.
//
// Errors are plain: each caller wraps them in its own ErrCorrupt.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"fuzzyknn/internal/fuzzy"
)

const (
	// HeaderSize is the fixed id | n | d prefix Shape reads.
	HeaderSize = 8 + 4 + 4
	// CRCSize is the record trailer.
	CRCSize = 4
)

// Size returns the length of o's body; its record is CRCSize longer.
func Size(o *fuzzy.Object) int {
	return HeaderSize + o.Len()*(o.Dims()+1)*8
}

// Append appends o's body to buf, growing it at most once. The points go
// out in At order — non-increasing membership — straight from the object's
// slabs, which is the order Decode keeps without sorting.
func Append(buf []byte, o *fuzzy.Object) []byte {
	buf = slices.Grow(buf, Size(o))
	buf = binary.LittleEndian.AppendUint64(buf, o.ID())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Dims()))
	buf = appendFloats(buf, o.Coords())
	return appendFloats(buf, o.Memberships())
}

// appendFloats appends vs as little-endian bit patterns; buf has the room.
func appendFloats(buf []byte, vs []float64) []byte {
	at := len(buf)
	buf = buf[:at+8*len(vs)]
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[at:], math.Float64bits(v))
		at += 8
	}
	return buf
}

// AppendRecord appends o's record — body plus checksum — to buf.
func AppendRecord(buf []byte, o *fuzzy.Object) []byte {
	start := len(buf)
	buf = Append(slices.Grow(buf, Size(o)+CRCSize), o)
	return binary.LittleEndian.AppendUint32(buf, Checksum(buf[start:]))
}

// Checksum is the CRC a record carries after its body, and the identity
// replication tracks per object.
func Checksum(body []byte) uint32 { return crc32.ChecksumIEEE(body) }

// Shape reads the header of a body (hdr must hold its first HeaderSize
// bytes; more is fine) and checks that its point count and dimensionality
// account for exactly length bytes — the length the enclosing frame claims
// for the body. The arithmetic cannot overflow: n·(d+1) cells are compared
// against the cells length has room for, never multiplied out, so a crafted
// header (n=2^29, d=2^32−1 wraps the naive size formula to 16) is refused
// and an accepted shape never describes more memory than length.
func Shape(hdr []byte, length int) (id uint64, n, d int, err error) {
	if len(hdr) < HeaderSize || length < HeaderSize {
		return 0, 0, 0, fmt.Errorf("object header truncated (%d of %d bytes)", min(len(hdr), length), HeaderSize)
	}
	id = binary.LittleEndian.Uint64(hdr)
	un := binary.LittleEndian.Uint32(hdr[8:])
	ud := binary.LittleEndian.Uint32(hdr[12:])
	room := uint64(length - HeaderSize)
	if un == 0 || ud == 0 || room%8 != 0 || uint64(un)*(uint64(ud)+1) != room/8 {
		return 0, 0, 0, fmt.Errorf("object shape n=%d d=%d does not account for %d bytes", un, ud, length)
	}
	return id, int(un), int(ud), nil
}

// Decode rebuilds an object from its body (the whole slice). The cells are
// decoded once, into the slab the object then owns; nothing in the result
// aliases body, so callers may reuse it.
func Decode(body []byte) (*fuzzy.Object, error) {
	id, n, d, err := Shape(body, len(body))
	if err != nil {
		return nil, err
	}
	cells := make([]float64, n*(d+1))
	for i := range cells {
		cells[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[HeaderSize+8*i:]))
	}
	return fuzzy.FromSlabs(id, d, cells[:n*d:n*d], cells[n*d:])
}

// VerifyRecord checks a record's trailing checksum against its body.
func VerifyRecord(rec []byte) error {
	if len(rec) < HeaderSize+CRCSize {
		return fmt.Errorf("record too short (%d bytes)", len(rec))
	}
	body := rec[:len(rec)-CRCSize]
	if Checksum(body) != binary.LittleEndian.Uint32(rec[len(body):]) {
		return errors.New("record checksum mismatch")
	}
	return nil
}

// DecodeRecord verifies and decodes a record.
func DecodeRecord(rec []byte) (*fuzzy.Object, error) {
	if err := VerifyRecord(rec); err != nil {
		return nil, err
	}
	return Decode(rec[:len(rec)-CRCSize])
}
