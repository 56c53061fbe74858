// eiselLemire64 below is Go's strconv.eiselLemire64 (src/strconv/
// eisel_lemire.go), which strconv does not export; the table it reads is
// built here from math/big instead of listed. Its notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// eiselLemire64 is man × 10^exp10, negated if neg, correctly rounded —
// Lemire's algorithm ("Number parsing at a gigabyte per second", 2021),
// following https://nigeltao.github.io/blog/2020/eisel-lemire.html, whose
// sections the terse comments name. ok is false when the 128-bit product
// cannot decide the rounding, when exp10 is outside the table, and when the
// value is subnormal or overflows: strconv's slower path decides those.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10Min]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// The powers of ten eiselLemire64 can scale by, both bounds inclusive.
const (
	pow10Min = -348
	pow10Max = +347
)

// pow10Table[e-pow10Min] is 10^e's mantissa to 128 bits, rounded down, as
// {low, high} halves: 1e43 = 0xE596B7B0_C643C719_6D9CCD05_D0000000 × 2^15.
// The exponents are implied by a line of slope 217706/65536 ≈ log2(10).
var pow10Table = pow10Mantissas()

// pow10Mantissas computes pow10Table exactly: 10^k shifted to 128 bits for
// k ≥ 0, and for 10^-k the quotient 2^(127+n) / 10^k, where 10^k has n
// bits, which lies strictly between 2^127 and 2^128 because 10^k is not a
// power of two.
func pow10Mantissas() *[pow10Max - pow10Min + 1][2]uint64 {
	var t [pow10Max - pow10Min + 1][2]uint64
	row := func(e int, m *big.Int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	ten, p, m := big.NewInt(10), big.NewInt(1), new(big.Int)
	for k := 0; k <= -pow10Min; k, p = k+1, p.Mul(p, ten) {
		n := p.BitLen()
		if k <= pow10Max {
			if n > 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			row(k, m)
		}
		if k > 0 {
			m.Lsh(m.SetInt64(1), uint(127+n))
			row(-k, m.Quo(m, p))
		}
	}
	return &t
}
