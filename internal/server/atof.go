// Number conversion for the request decoder. The scanner reads a number
// token's first 19 significant digits and its decimal exponent in the
// pass that checks its grammar, exactly as strconv's readFloat reads
// them, and converts them here with strconv's two exact fast algorithms:
// float64 arithmetic when the significand and the power of ten are both
// exact (atof64exact), and Eisel–Lemire over a 128-bit power-of-ten table
// (eiselLemire64; Lemire, "Number Parsing at a Gigabyte per Second",
// arXiv:2101.11408, and https://nigeltao.github.io/blog/2020/eisel-lemire.html).
// Each returns the correctly rounded float64, so bit for bit what
// strconv.ParseFloat returns, or declines; a declined token goes to
// strconv.ParseFloat on its bytes.
package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// pow10Min and pow10Max bound the exponents of the power-of-ten table,
// strconv's range: wide enough for every normal float64 from a
// significand of up to 19 digits. Eisel–Lemire declines every exponent
// outside it.
const pow10Min, pow10Max = -348, 347

// pow10 holds 10^q for q in [pow10Min, pow10Max] at index q-pow10Min,
// normalised into [2^127, 2^128) and rounded down. Row q's binary
// exponent is floor(q·log2 10) - 127, the one eiselLemire64 computes.
var pow10 = pow10Table()

// pow10Table computes the rows of pow10 with math/big: 10^q shifted to
// 128 bits for q ≥ 0, and floor(2^(127+L) / 10^-q) for q < 0, where L is
// the bit length of 10^-q.
func pow10Table() (t [pow10Max - pow10Min + 1][2]uint64) {
	set := func(q int, r *big.Int) {
		var b [16]byte
		r.FillBytes(b[:])
		t[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	p, ten, r := big.NewInt(1), big.NewInt(10), new(big.Int) // p = 10^q
	for q := 0; q <= max(pow10Max, -pow10Min); q++ {
		if q <= pow10Max {
			if s := p.BitLen() - 128; s > 0 {
				r.Rsh(p, uint(s))
			} else {
				r.Lsh(p, uint(-s))
			}
			set(q, r)
		}
		if q > 0 && -q >= pow10Min {
			r.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			set(-q, r.Quo(r, p))
		}
		p.Mul(p, ten)
	}
	return t
}

// float64pow10 holds the powers of ten that float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// atof64exact returns ±man·10^exp when float64 arithmetic computes it
// exactly: man below 2^52 and |exp| ≤ 22, where one correctly rounded
// multiplication or division by an exact power of ten gives the correctly
// rounded result, or a few digits and an exponent up to 37, whose excess
// zeros move into man first.
//
//malsched:noalloc
func atof64exact(man uint64, exp int, neg bool) (f float64, ok bool) {
	if man>>52 != 0 {
		return 0, false
	}
	f = float64(man)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false // too many digits for the exponent
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return 0, false
}

// eiselLemire64 returns ±man·10^exp10 correctly rounded, or declines:
// when exp10 is outside the table, when the 128-bit product lies too close
// to a halfway point to decide the rounding, and when the result is
// subnormal or overflows.
//
//malsched:noalloc
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	// Normalise man, and estimate the binary exponent.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// Multiply by the table row's high half; when the product's low bits
	// could still carry into the kept ones, widen it with the low half.
	row := &pow10[exp10-pow10Min]
	xHi, xLo := bits.Mul64(man, row[0])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, row[1])
		hi, lo := xHi, xLo+yHi
		if lo < xLo {
			hi++
		}
		if hi&0x1FF == 0x1FF && lo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = hi, lo
	}

	// Keep 54 bits, decline a possible halfway case, and round to 53.
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // exp2 <= 0 (subnormal) or >= 0x7FF (overflow)
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
