package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refNumber is the strconv path the walk replaces: JSON's number grammar
// checked on its own, the literal then handed to strconv. It returns the
// literal's end, or -1 if no number starts b (after whitespace).
func refNumber(b []byte) (tok []byte, end int) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	from := i
	digits := func() bool {
		d := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > d
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return nil, -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, -1
		}
	}
	return b[from:i], i
}

// checkNumber reads b with the scanner as a float, a uint64 and an int, and
// requires each to accept, end and decide exactly as the strconv path does.
func checkNumber(t *testing.T, b []byte) {
	t.Helper()
	tok, end := refNumber(b)
	sc := &wireScanner{b: b}

	want, err := strconv.ParseFloat(string(tok), 64)
	wantOK := end >= 0 && err == nil
	var got float64
	if ok := sc.float(&got); ok != wantOK {
		t.Fatalf("float(%q): accepted = %v, strconv %v (%v)", b, ok, wantOK, err)
	} else if ok && (math.Float64bits(got) != math.Float64bits(want) || sc.i != end) {
		t.Fatalf("float(%q) = %v (%#x) ending at %d, strconv %v (%#x) ending at %d",
			b, got, math.Float64bits(got), sc.i, want, math.Float64bits(want), end)
	}

	sc.i = 0
	wantU, err := strconv.ParseUint(string(tok), 10, 64)
	wantOK = end >= 0 && err == nil
	var u uint64
	if ok := sc.uint(&u); ok != wantOK || ok && (u != wantU || sc.i != end) {
		t.Fatalf("uint(%q) = %d, %v ending at %d; strconv %d, %v ending at %d", b, u, ok, sc.i, wantU, wantOK, end)
	}

	sc.i = 0
	wantI, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	wantOK = end >= 0 && err == nil
	var n int
	if ok := sc.int(&n); ok != wantOK || ok && (int64(n) != wantI || sc.i != end) {
		t.Fatalf("int(%q) = %d, %v ending at %d; strconv %d, %v ending at %d", b, n, ok, sc.i, wantI, wantOK, end)
	}
}

// numberEdges are literals at the corners of the float64 range, of
// rounding, and of the walk's three steps, and the forms JSON refuses.
var numberEdges = []string{
	"0", "-0", "-0.0", "0e0", "-0E-0", "0.000",
	"4.9e-324", "5e-324", "2e-324", "2.4703282292062328e-324", // the smallest subnormal, and rounding to it or to zero
	"2.2250738585072011e-308", "2.2250738585072014e-308", // the largest subnormal, the smallest normal
	"1.7976931348623157e308", "1.7976931348623159e308", // the largest finite; the next rounds to +Inf and overflows
	"-1.7976931348623159e308", "1e308", "1e309",
	"9007199254740992", "9007199254740993", "9007199254740994", // 2^53 and its neighbours
	// A tie that rounds to even, and its neighbour just below the halfway point.
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	"123456789012345678901234567890", "0.123456789012345678901234567890", // thirty-digit mantissas
	"1234567890123456789", "12345678901234567890", "1234567890123456789.5",
	"10000000000000000000000000000000000000000000",
	"1e-400", "1e999", "-1e999", "1e-999",
	"1e1234567890123456789012345", "1e-1234567890123456789012345", "0e1234567890123456789012345",
	"0.1", "0.2", "0.3", "1e22", "1e23", "1e-22", "1e-23", "123456789e-22", "9007199254740991e22",
	"18446744073709551615", "18446744073709551616", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "1.0", "1e2", "-1",
	"0.000000000000000000000000000001", "-12.345678901234567", "12.345678901234567e-3",
	// JSON refuses these; strconv would read some of them.
	"01", ".5", "1.", "1e", "1e+", "+1", "-", "", "-.5", "0x10", "1_0", "Inf", "NaN", "e5", "--1",
}

// TestParseNumberEdges reads every edge literal, and each with a prefix of
// whitespace and a suffix the literal ends at, as the strconv path reads it.
func TestParseNumberEdges(t *testing.T) {
	for _, lit := range numberEdges {
		for _, b := range []string{lit, " \n\t" + lit, lit + ",", lit + "]", lit + "}"} {
			checkNumber(t, []byte(b))
		}
	}
}

// TestParseNumberRandom reads random float64s printed the ways encoding/json
// and people print them, and random digit strings, as strconv does.
func TestParseNumberRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		var s string
		switch i % 4 {
		case 0: // any bit pattern
			f := math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			s = strconv.FormatFloat(f, "eg"[rng.Intn(2)], -1, 64)
		case 1: // a coordinate, as fuzzyload's datasets marshal them
			s = string(mustMarshal(t, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4))))
		case 2: // a shortened or lengthened one
			s = strconv.FormatFloat(rng.Float64()*1e3, 'f', rng.Intn(25), 64)
		default: // random digits and exponent
			var sb strings.Builder
			sb.WriteString(strconv.Itoa(1 + rng.Intn(9)))
			for d := rng.Intn(30); d > 0; d-- {
				sb.WriteByte(byte('0' + rng.Intn(10)))
			}
			sb.WriteString("e" + strconv.Itoa(rng.Intn(700)-350))
			s = sb.String()
		}
		checkNumber(t, []byte(s))
	}
}

// FuzzParseNumber is the walk against the strconv path over arbitrary bytes:
// the same accept or decline, the same bits and the same end.
func FuzzParseNumber(f *testing.F) {
	for _, lit := range numberEdges {
		f.Add([]byte(lit))
	}
	f.Add([]byte(" 12345678.12345678,"))
	f.Add([]byte("-0.0000000012345678901234567e-5]"))
	f.Fuzz(func(t *testing.T, b []byte) { checkNumber(t, b) })
}

// TestPow10Table checks the table built from math/big against rows quoted
// from Go's strconv table.
func TestPow10Table(t *testing.T) {
	for _, row := range []struct {
		e       int
		lo, hi  uint64
		comment string
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288, "1e-348"},
		{0, 0x0000000000000000, 0x8000000000000000, "1e0"},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719, "1e43"},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567, "1e347"},
	} {
		if got := pow10Table[row.e-pow10Min]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("%s: {%#016x, %#016x}, want {%#016x, %#016x}", row.comment, got[0], got[1], row.lo, row.hi)
		}
	}
}

// TestFastPathDecides pins that the walk itself — the exact step or
// Eisel–Lemire — decides nearly every literal of a bulk-load group, and
// every literal of at most 19 significant digits whatever its leading
// zeros, so strconv stays a fallback.
func TestFastPathDecides(t *testing.T) {
	for _, lit := range []string{"-0", "0.5", "12.345678901234567", "1234567890123456789",
		"0.0000000001234567890123456789", "-1.234567890123456789e-300", "9.999999999999999999e307"} {
		sc := &wireScanner{b: []byte(lit)}
		if n, ok := sc.number(); !ok {
			t.Errorf("the walk refused %s", lit)
		} else if _, ok := n.fast(); !ok {
			t.Errorf("the walk left %s to strconv", lit)
		}
	}
	dec := json.NewDecoder(strings.NewReader(string(batchBody(t, 500))))
	dec.UseNumber()
	total, decided := 0, 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		lit, ok := tok.(json.Number)
		if !ok {
			continue
		}
		sc := &wireScanner{b: []byte(lit)}
		n, ok := sc.number()
		if !ok {
			t.Fatalf("the walk refused %s", lit)
		}
		total++
		if _, ok := n.fast(); ok {
			decided++
		}
	}
	t.Logf("the walk decided %d of %d literals", decided, total)
	if total < 500*128*3 || decided*100 < total*99 {
		t.Errorf("the walk decided %d of %d literals, want ≥ 99%%", decided, total)
	}
}
