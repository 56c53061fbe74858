package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"fuzzyknn"
	"fuzzyknn/internal/fuzzy"
)

// The wire scanner reads the five object-carrying bodies — /aknn, /rknn,
// /range, /objects, /objects:batch — straight into the slabs fuzzy.FromSlabs
// keeps. It accepts one canonical grammar (the exact lower-case keys, each at
// most once; JSON numbers; unescaped ASCII strings) and never reports a
// syntax error: at the first byte outside that grammar it declines, and the
// same bytes go to decode, so encoding/json stays the definition of which
// bodies are accepted and of every 400's wording. What an accepted object is
// worth is FromSlabs' verdict on both paths.
//
// A big "objects" list is read on every core (split): it is cut into one
// piece per core, each cut at a guessed element start, and each piece is read
// by a scanner of its own with the same object(). The pieces are accepted
// only if each ends exactly where the next one starts, just past a comma, and
// the last at the list's ']'. Then every cut is an element start of the
// serial read — which reads from each one what the piece read — so the
// objects, their order and the position after the list are the serial
// scanner's. Otherwise the list is read again serially from its '[': a wrong
// guess costs time, never an answer. At one core the list is read serially.

// inlineObject is one inline object of a request after decoding: the built
// object, or why it was refused (id is kept for reporting the refusal).
type inlineObject struct {
	id  uint64
	obj *fuzzyknn.Object
	err error
}

var errMissingObject = errors.New("missing object")

// inlineFromJSON is inlineObject for the encoding/json path.
func inlineFromJSON(oj *ObjectJSON) inlineObject {
	if oj == nil {
		return inlineObject{err: errMissingObject}
	}
	obj, err := objectFromJSON(oj)
	return inlineObject{id: oj.ID, obj: obj, err: err}
}

// inlineOf is a request's one inline object, whichever path decoded it, or
// nil if the body carried none.
func inlineOf(scanned []inlineObject, oj *ObjectJSON) *inlineObject {
	switch {
	case len(scanned) > 0:
		return &scanned[0]
	case oj != nil:
		in := inlineFromJSON(oj)
		return &in
	}
	return nil
}

// wireFields says where each key of one endpoint's body goes. A nil (or
// zero) target is a key the endpoint does not have; the scanner declines on
// it and encoding/json words the refusal.
type wireFields struct {
	object    string    // the key of the body's one inline object: "query" or "object"
	objects   bool      // "objects", a list of them
	deleteIDs *[]uint64 // "delete_ids"
	queryID   **uint64  // "query_id"
	k         *int
	algo      *string

	alpha, alphaStart, alphaEnd, radius *float64
}

// maxPooledBytes bounds what a scanner may keep between requests: one
// 16 MiB body must not pin 16 MiB for the life of the process.
const maxPooledBytes = 1 << 20

var scanners = sync.Pool{New: func() any { return new(wireScanner) }}

type wireScanner struct {
	body bytes.Buffer // the request body

	b []byte // the bytes being scanned and the position in them
	i int

	// One object's points as they are read; copied out at their exact size,
	// so a batch reuses the pair across its objects.
	coords, mus []float64

	// The objects one piece of a split list read, until they are gathered.
	found []inlineObject
}

// readBody reads the whole request body, capped at maxBodyBytes, into a
// pooled scanner the caller releases. On failure it has answered: 413 over
// the cap, 400 for a body that could not be read.
func readBody(w http.ResponseWriter, r *http.Request) (*wireScanner, bool) {
	sc := scanners.Get().(*wireScanner)
	sc.body.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		sc.body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead to spare before it sees EOF
	}
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		sc.release()
		writeDecodeError(w, err)
		return nil, false
	}
	return sc, true
}

// release returns the scanner to the pool, without what it grew beyond
// maxPooledBytes.
func (sc *wireScanner) release() {
	if sc.body.Cap()+8*(cap(sc.coords)+cap(sc.mus))+32*cap(sc.found) > maxPooledBytes { // an inlineObject is 32 bytes
		*sc = wireScanner{}
	}
	sc.b = nil
	scanners.Put(sc)
}

// decodeBody decodes the request body into *req — through f, whose targets
// point into it — and returns the inline objects if the scanner read them;
// those encoding/json read are in *req. On failure it has answered.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, req *T, f wireFields) ([]inlineObject, bool) {
	sc, ok := readBody(w, r)
	if !ok {
		return nil, false
	}
	defer sc.release()
	if objs, ok := sc.scan(sc.body.Bytes(), f); ok {
		return objs, true
	}
	*req = *new(T) // drop what the scanner stored before it declined
	return nil, decode(w, sc.body.Bytes(), req)
}

// scan reads b as one request body. accepted is false when b is outside the
// scanner's grammar — which says nothing about whether it is valid.
func (sc *wireScanner) scan(b []byte, f wireFields) (objs []inlineObject, accepted bool) {
	sc.b, sc.i = b, 0
	object := func() bool {
		o, ok := sc.object()
		objs = append(objs, o)
		return ok
	}
	ok := sc.members(func(key []byte) bool {
		switch {
		case f.object != "" && string(key) == f.object:
			f.object = ""
			return object()
		case f.objects && string(key) == "objects":
			f.objects = false
			return sc.split(&objs) || sc.list(object)
		case f.deleteIDs != nil && string(key) == "delete_ids":
			ids := take(&f.deleteIDs)
			return sc.list(func() bool {
				var id uint64
				ok := sc.uint(&id)
				*ids = append(*ids, id)
				return ok
			})
		case f.queryID != nil && string(key) == "query_id":
			id := new(uint64)
			*take(&f.queryID) = id
			return sc.uint(id)
		case f.k != nil && string(key) == "k":
			return sc.int(take(&f.k))
		case f.algo != nil && string(key) == "algo":
			return sc.str(take(&f.algo))
		case f.alpha != nil && string(key) == "alpha":
			return sc.float(take(&f.alpha))
		case f.alphaStart != nil && string(key) == "alpha_start":
			return sc.float(take(&f.alphaStart))
		case f.alphaEnd != nil && string(key) == "alpha_end":
			return sc.float(take(&f.alphaEnd))
		case f.radius != nil && string(key) == "radius":
			return sc.float(take(&f.radius))
		}
		return false
	})
	sc.skip()
	return objs, ok && sc.i == len(b) // anything after the closing brace declines
}

// take gives up a target: it is cleared once its key is read, so a second
// occurrence is a key the endpoint does not have.
func take[T any](target **T) *T {
	t := *target
	*target = nil
	return t
}

// minPieceBytes is the least body a piece of a split list stands for: a piece
// costs a goroutine and a pooled scanner, some microseconds, against ≈ 150 µs
// of reading at this size. A variable so that tests can split small lists.
var minPieceBytes = 32 << 10

// elemStart is the guess at where an element of an "objects" list starts:
// the first bytes encoding/json writes for an ObjectJSON.
var elemStart = []byte(`{"id":`)

// split reads the "objects" list that comes next onto *objs in pieces, one
// per core, and reports whether they met (see the header comment). When it
// reports false, nothing is read: sc.i and *objs are as they were.
func (sc *wireScanner) split(objs *[]inlineObject) bool {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return false
	}
	from, open := sc.i, sc.i
	for open < len(sc.b) && isSpace(sc.b[open]) {
		open++
	}
	rest := len(sc.b) - open
	if rest < 2*minPieceBytes || sc.b[open] != '[' {
		return false
	}
	// The list's end is not known before it is read; the body's end is the
	// estimate. Piece k starts at the first guess at or after share k.
	n := min(procs, rest/minPieceBytes)
	starts := []int{open + 1}
	for k := 1; k < n; k++ {
		at := max(open+k*(rest/n), starts[len(starts)-1]+1)
		j := bytes.Index(sc.b[at:], elemStart)
		if j < 0 {
			break
		}
		starts = append(starts, at+j)
	}
	if len(starts) < 2 {
		return false
	}

	pieces := make([]*wireScanner, len(starts))
	pieces[0] = sc
	met := make([]bool, len(starts))
	var wg sync.WaitGroup
	for k := 1; k < len(starts); k++ {
		end := -1 // the last piece ends at ']'
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		p := scanners.Get().(*wireScanner)
		p.b, p.i = sc.b, starts[k]
		pieces[k] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			met[k] = p.piece(end)
		}()
	}
	sc.i = starts[0]
	met[0] = sc.piece(starts[1])
	wg.Wait()

	ok := !slices.Contains(met, false)
	if ok {
		total := 0
		for _, p := range pieces {
			total += len(p.found)
		}
		*objs = slices.Grow(*objs, total)
		for _, p := range pieces {
			*objs = append(*objs, p.found...)
		}
		sc.i = pieces[len(pieces)-1].i // past the list's ']'
	} else {
		sc.i = from
	}
	for k, p := range pieces {
		clear(p.found) // the pool must not keep the objects alive
		p.found = p.found[:0]
		if k > 0 {
			p.release()
		}
	}
	return ok
}

// piece reads elements of a list from sc.i onto sc.found until it stands at
// end, just past a comma and any whitespace — or, for the last piece (end
// < 0), past the list's ']'. It reports false where the serial list would,
// and where the piece does not end exactly there.
func (sc *wireScanner) piece(end int) bool {
	for {
		o, ok := sc.object()
		sc.found = append(sc.found, o)
		switch {
		case !ok:
			return false
		case sc.eat(','):
			if sc.skip(); end >= 0 && sc.i >= end {
				return sc.i == end
			}
		case sc.eat(']'):
			return end < 0
		default:
			return false
		}
	}
}

// object reads one {"id":…,"points":[{"p":[…],"mu":…},…]} and hands its
// slabs to FromSlabs. Ragged or empty p, or no points key, declines.
func (sc *wireScanner) object() (o inlineObject, ok bool) {
	sc.coords, sc.mus = sc.coords[:0], sc.mus[:0]
	dims, seenID, seenPoints := 0, false, false
	ok = sc.members(func(key []byte) bool {
		switch {
		case !seenID && string(key) == "id":
			seenID = true
			return sc.uint(&o.id)
		case !seenPoints && string(key) == "points":
			seenPoints = true
			return sc.list(func() bool { return sc.point(&dims) })
		}
		return false
	})
	if !ok || dims == 0 {
		return o, false
	}
	cells := make([]float64, len(sc.coords)+len(sc.mus))
	n := copy(cells, sc.coords)
	copy(cells[n:], sc.mus)
	o.obj, o.err = fuzzy.FromSlabs(o.id, dims, cells[:n:n], cells[n:])
	return o, true
}

// point reads one {"p":[…],"mu":…} onto the scratch slabs. *dims is the
// object's dimensionality, 0 before its first point.
func (sc *wireScanner) point(dims *int) bool {
	seenP, seenMu := false, false
	ok := sc.members(func(key []byte) bool {
		switch {
		case !seenP && string(key) == "p":
			seenP = true
			from := len(sc.coords)
			ok := sc.list(func() bool {
				var c float64
				ok := sc.float(&c)
				sc.coords = append(sc.coords, c)
				return ok
			})
			n := len(sc.coords) - from
			if *dims == 0 {
				*dims = n
			}
			return ok && n > 0 && n == *dims
		case !seenMu && string(key) == "mu":
			seenMu = true
			var mu float64
			ok := sc.float(&mu)
			sc.mus = append(sc.mus, mu)
			return ok
		}
		return false
	})
	return ok && seenP && seenMu
}

// seq reads open elem , elem … close — a list, or an object's members —
// calling elem at the start of each element.
func (sc *wireScanner) seq(open, close byte, elem func() bool) bool {
	if !sc.eat(open) {
		return false
	}
	for first := true; ; first = false {
		if sc.eat(close) {
			return true
		}
		if !first && !sc.eat(',') || !elem() {
			return false
		}
	}
}

func (sc *wireScanner) list(elem func() bool) bool { return sc.seq('[', ']', elem) }

// members reads {"key":value,…}, calling value with each key (nil if what
// is there is not a key and its colon) to read what follows it.
func (sc *wireScanner) members(value func(key []byte) bool) bool {
	return sc.seq('{', '}', func() bool { return value(sc.key()) })
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (sc *wireScanner) skip() {
	for sc.i < len(sc.b) && isSpace(sc.b[sc.i]) {
		sc.i++
	}
}

// eat consumes c if it is the next byte after any whitespace.
func (sc *wireScanner) eat(c byte) bool {
	sc.skip()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// key reads "name": and returns name's bytes, nil if that is not what
// comes next. A name with an escape in it equals none of ours.
func (sc *wireScanner) key() []byte {
	if !sc.eat('"') {
		return nil
	}
	end := bytes.IndexByte(sc.b[sc.i:], '"')
	if end < 0 {
		return nil
	}
	name := sc.b[sc.i : sc.i+end]
	sc.i += end + 1
	if !sc.eat(':') {
		return nil
	}
	return name
}

// number is one JSON number as the scanner's walk reads it: ±man × 10^exp10,
// man holding the first 19 significant digits (10^19 fits a uint64).
type number struct {
	from  int // where the literal starts: strconv reads it again when the walk cannot decide
	man   uint64
	exp10 int
	neg   bool
	trunc bool // a nonzero digit after the 19th was dropped
	frac  bool // a fraction or an exponent: not an integer literal
}

// number reads the JSON number that comes next in one walk, checking JSON's
// grammar — narrower than strconv's ("+1", "01", ".5", "1.", "0x1", "1_0"
// and "Inf" are all out) — as it takes the digits. ok is false if no number
// comes next. The digits are read as strconv's readFloat reads them, so
// (man, exp10, trunc) are the values strconv itself would decide from.
func (sc *wireScanner) number() (n number, ok bool) {
	sc.skip()
	b, i := sc.b, sc.i
	n.from = i
	n.neg = i < len(b) && b[i] == '-'
	if n.neg {
		i++
	}
	nd := 0 // significant digits in n.man
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		n.man, nd, i = digits(b, i, 0, 0)
		from := i
		i = n.drop(b, i)
		n.exp10 = i - from // each dropped digit before the point scales by ten
	default:
		return n, false
	}
	if i < len(b) && b[i] == '.' {
		n.frac = true
		i++
		from := i
		for n.man == 0 && i < len(b) && b[i] == '0' {
			i++ // leading zeros are not significant
		}
		n.man, nd, i = digits(b, i, n.man, nd)
		n.exp10 -= i - from
		if i = n.drop(b, i); i == from {
			return n, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		n.frac = true
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		from, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // beyond every table; strconv caps it alike
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == from {
			return n, false
		}
		if neg {
			e = -e
		}
		n.exp10 += e
	}
	sc.i = i
	return n, true
}

// digits takes the digits at b[i:] onto man, which holds nd of them, until
// it holds 19 or the digits end; eight at a time where it can.
func digits(b []byte, i int, man uint64, nd int) (uint64, int, int) {
	for ; nd <= 19-8 && i+8 <= len(b); i, nd = i+8, nd+8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break // not eight digits
		}
		// Lemire's SWAR: pairs, then quads, then the eight.
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = (v&0x000000FF000000FF*(100+1000000<<32) + v>>16&0x000000FF000000FF*(1+10000<<32)) >> 32
		man = man*1e8 + v
	}
	for ; i < len(b) && nd < 19 && b[i]-'0' <= 9; i, nd = i+1, nd+1 {
		man = man*10 + uint64(b[i]-'0')
	}
	return man, nd, i
}

// drop skips the digits at b[i:] that did not fit in man, noting whether
// any was nonzero, and returns where they end.
func (n *number) drop(b []byte, i int) int {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n.trunc = n.trunc || b[i] != '0'
	}
	return i
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// fast is n's value where it is decided without strconv: exactly by one
// multiply or divide when man and 10^|exp10| are both exact float64s, else
// by Eisel–Lemire. ok is false when neither decides.
func (n *number) fast() (float64, bool) {
	switch {
	case n.trunc:
		return 0, false
	case n.man < 1<<53 && -len(exactPow10) < n.exp10 && n.exp10 < len(exactPow10):
		f := float64(n.man)
		if n.exp10 < 0 {
			f /= exactPow10[-n.exp10]
		} else {
			f *= exactPow10[n.exp10]
		}
		if n.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire64(n.man, n.exp10, n.neg)
}

// float, uint and int parse the next number as encoding/json parses it for
// a field of that type; one strconv refuses (1e999, -1 or 1.5 for an
// integer, nothing at all) declines. The walk decides almost every value;
// strconv reads the literal again only for what it cannot.
func (sc *wireScanner) float(dst *float64) bool {
	n, ok := sc.number()
	if !ok {
		return false
	}
	if f, ok := n.fast(); ok {
		*dst = f
		return true
	}
	f, err := strconv.ParseFloat(string(sc.b[n.from:sc.i]), 64)
	*dst = f
	return err == nil
}

// uint refuses a sign, a fraction and an exponent, as strconv.ParseUint
// does; an integer literal of 19 digits or fewer is exactly man.
func (sc *wireScanner) uint(dst *uint64) bool {
	n, ok := sc.number()
	switch {
	case !ok || n.neg || n.frac:
		return false
	case n.exp10 == 0:
		*dst = n.man
		return true
	}
	v, err := strconv.ParseUint(string(sc.b[n.from:sc.i]), 10, 64)
	*dst = v
	return err == nil
}

// int refuses a fraction and an exponent, as strconv.ParseInt does, and
// anything outside int — which every literal of 20 digits or more is.
func (sc *wireScanner) int(dst *int) bool {
	n, ok := sc.number()
	limit := uint64(math.MaxInt)
	if n.neg {
		limit++ // -math.MinInt
	}
	if !ok || n.frac || n.exp10 != 0 || n.man > limit {
		return false
	}
	*dst = int(n.man)
	if n.neg {
		*dst = -*dst
	}
	return true
}

// str reads a string of unescaped ASCII; escapes and other bytes are
// encoding/json's to interpret.
func (sc *wireScanner) str(dst *string) bool {
	if !sc.eat('"') {
		return false
	}
	for i := sc.i; i < len(sc.b); i++ {
		switch c := sc.b[i]; {
		case c == '"':
			*dst = string(sc.b[sc.i:i])
			sc.i = i + 1
			return true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return false
		}
	}
	return false
}
