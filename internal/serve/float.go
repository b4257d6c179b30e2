package serve

// The wire codec's number conversions. Every request sample is parsed
// and every response sample formatted once, so these two conversions,
// not the transform, set the cost of a served request. Both are exact:
//
//   - literal.convert turns a literal's significand and decimal exponent,
//     which the decoder builds while it checks the grammar, into the
//     float64 strconv.ParseFloat returns, bit for bit: by Clinger's exact
//     fast path when the significand and the power of ten are both exact
//     float64s, else by the Eisel–Lemire algorithm (D. Lemire, "Number
//     Parsing at a Gigabyte per Second", Software: Practice and
//     Experience 51(8), 2021; eisel_lemire.go holds Go's strconv code
//     for it, under Go's licence). The few literals neither decides (more
//     than 19 significant digits, a product too close to a halfway point,
//     a result outside the normal range) go to strconv.ParseFloat.
//   - shortest finds the shortest decimal that parses back to a float64,
//     the closest one on a tie, which is what strconv.AppendFloat(f, fmt,
//     -1, 64) prints, with Schubfach (R. Giulietti, "The Schubfach way to
//     render doubles", 2020).
//
// Both read one table, the leading 128 bits of 10^q for q in [-348, 347]
// (powersOfTen). float_test.go holds both to the strconv calls they
// replaced, which codec_test.go keeps as oracles.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
	"sync"
)

// The exponent range of powersOfTen's table. Past it, any significand
// of up to 19 digits times 10^q underflows to zero or overflows; within
// it lie the 10^-k Schubfach needs, k in [-324, 292].
const (
	pow10Min = -348
	pow10Max = 347
)

type uint128 struct{ hi, lo uint64 }

var (
	pow10Once  sync.Once
	pow10Table [pow10Max - pow10Min + 1]uint128
)

// powersOfTen returns the table T, where T[q-pow10Min] holds the leading
// 128 bits of 10^q, truncated: floor(10^q × 2^s) for the s that puts it
// in [2^127, 2^128). It is the table of Go's strconv/eisel_lemire.go.
// It is built from math/big on first use (about a millisecond), not at
// init, so a process that never converts a float never builds it.
func powersOfTen() *[pow10Max - pow10Min + 1]uint128 {
	pow10Once.Do(func() {
		var p, t big.Int
		p.SetInt64(1) // 10^i
		split := func(t *big.Int) uint128 {
			var b [16]byte
			t.FillBytes(b[:])
			return uint128{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
		}
		for i := 0; i <= -pow10Min; i++ {
			n := p.BitLen()
			if i <= pow10Max {
				if n > 128 {
					t.Rsh(&p, uint(n-128))
				} else {
					t.Lsh(&p, uint(128-n))
				}
				pow10Table[i-pow10Min] = split(&t)
			}
			if i > 0 {
				// 2^(n+127) / 10^i lies in (2^127, 2^128).
				t.Lsh(big.NewInt(1), uint(n+127))
				pow10Table[-i-pow10Min] = split(t.Quo(&t, &p))
			}
			p.Mul(&p, big.NewInt(10))
		}
	})
	return &pow10Table
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// convert returns the float64 nearest to n's value (ties to even); ok
// is false only when it overflows float64.
func (n *literal) convert() (f float64, ok bool) {
	man, exp, neg := n.man, n.exp, n.text[0] == '-'
	switch {
	case n.trunc:
	case man == 0:
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	case man < 1<<53 && -22 <= exp && exp <= 22:
		// Clinger: both operands are exact, so one rounding.
		f = float64(man)
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		if neg {
			f = -f
		}
		return f, true
	default:
		if f, ok := eiselLemire(man, exp, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(n.text), 64)
	return f, err == nil
}

// shortest returns the shortest decimal d × 10^e that parses back to the
// positive finite float64 with the given bits, the one closest to it
// when several are shortest (the even one on a tie). d may end in zeros.
//
// It is the skeleton of Schubfach's Java reference, DoubleToDecimal, with
// Go's shortest form where Java requires two digits: the one-digit-
// shorter candidate is tried from s >= 10 (Java: 100), at the same
// subnormal offset dk as the others. The paper's g(k), 10^-k scaled to
// 126 bits and rounded up, is T(-k) >> 2, plus one.
func shortest(b uint64) (d uint64, e int) {
	const (
		cMin   = 1 << 52
		qMin   = -1074
		mask63 = 1<<63 - 1
	)
	c := b & (cMin - 1)
	q, dk := qMin, 0
	if bq := int(b >> 52); bq != 0 {
		c |= cMin
		q = bq - 1075
		if -53 < q && q < 0 {
			// An integer below 2^53 is its own shortest form.
			if f := c >> -q; f<<-q == c {
				return f, 0
			}
		}
	} else if c < 3 {
		// The two smallest subnormals are too coarse for the method:
		// find ten times their digits, a decimal place down.
		c, dk = 10*c, -1
	}

	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == qMin {
		// Regular spacing.
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// Irregular spacing: the float below is half as far away.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2

	// g = g1 × 2^63 + g0 = T(-k) >> 2 + 1.
	t := powersOfTen()[-k-pow10Min]
	glo := (t.hi<<62 | t.lo>>2) + 1
	ghi := t.hi >> 2
	if glo == 0 {
		ghi++
	}
	g1, g0 := ghi<<1|glo>>63, glo&mask63

	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// One digit shorter: u' = sp10 or w' = tp10, if exactly one
		// lies in the rounding interval.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k + dk
			}
			return tp10, k + dk
		}
	}
	// u = s or w = s+1, whichever lies in the interval, or the closer.
	w := s + 1
	uin := vbl+out <= s<<2
	win := w<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k + dk
		}
		return w, k + dk
	}
	if cmp := int64(vb - (s+w)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k + dk
	}
	return w, k + dk
}

// rop is Schubfach's round-to-odd product of cp and g = g1 × 2^63 + g0,
// scaled by 2^-127.
func rop(g1, g0, cp uint64) uint64 {
	const mask63 = 1<<63 - 1
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// flog10pow2 is floor(e log10 2), flog10ThreeQuartersPow2 floor(log10(3/4
// × 2^e)) and flog2pow10 floor(e log2 10), exact over the exponents
// shortest passes (Giulietti, §9).
func flog10pow2(e int) int { return int(int64(e) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// appendFloat appends the finite f as encoding/json writes a float64:
// the shortest round-tripping digits, in exponent form outside [1e-6,
// 1e21), with a one-digit negative exponent unpadded (e-7, not e-07).
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	start := len(dst)
	// The longest form is -0.00000 and 17 digits.
	dst = slices.Grow(dst, 25)
	out := dst[start : start+25]
	w := 0
	if b>>63 != 0 {
		out[0] = '-'
		w, b = 1, b&^(1<<63)
	}
	if b == 0 {
		out[w] = '0'
		return dst[:start+w+1]
	}
	d, e := shortest(b)
	for d%10 == 0 {
		d /= 10
		e++
	}
	nd := decimalLen(d)
	x := nd + e // f = ±0.digits × 10^x

	switch abs := math.Float64frombits(b); {
	case abs < 1e-6 || abs >= 1e21:
		// d.ddde±x: the digits one place right, the first moved back.
		putDigits(out[w+1:w+1+nd], d)
		out[w] = out[w+1]
		w++
		if nd > 1 {
			out[w] = '.'
			w += nd
		}
		out[w] = 'e'
		if x--; x < 0 {
			out[w+1] = '-'
			x = -x
		} else {
			out[w+1] = '+'
		}
		w += 2
		// x is 7 to 324 below, 21 to 308 above.
		if x >= 100 {
			out[w] = byte('0' + x/100)
			x %= 100
			w++
		} else if x < 10 {
			out[w] = byte('0' + x)
			return dst[:start+w+1]
		}
		out[w], out[w+1] = byte('0'+x/10), byte('0'+x%10)
		w += 2
	case x <= 0: // 0.00…digits, at most five zeros
		w += copy(out[w:], "0.00000"[:2-x])
		putDigits(out[w:w+nd], d)
		w += nd
	case x >= nd: // digits00…, at most twenty zeros
		putDigits(out[w:w+nd], d)
		w += nd
		w += copy(out[w:], "00000000000000000000"[:x-nd])
	default: // the point inside the digits
		putDigits(out[w+1:w+1+nd], d)
		copy(out[w:], out[w+1:w+1+x])
		out[w+x] = '.'
		w += nd + 1
	}
	return dst[:start+w]
}

// decimalLen is the number of decimal digits of d > 0.
func decimalLen(d uint64) int {
	n := bits.Len64(d) * 1233 >> 12 // floor(log10 2^Len64)
	if d >= uint64pow10[n] {
		n++
	}
	return n
}

var uint64pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// putDigits writes the decimal digits of d to fill b, eight at a time.
func putDigits(b []byte, d uint64) {
	i := len(b)
	for ; i > 8; i -= 8 {
		q := d / 1e8
		binary.LittleEndian.PutUint64(b[i-8:], eightDigits(uint32(d-q*1e8)))
		d = q
	}
	// The leading i digits: eightDigits' last i bytes.
	u := eightDigits(uint32(d)) >> (64 - 8*i)
	for j := range b[:i] {
		b[j] = byte(u)
		u >>= 8
	}
}

// eightDigits returns the eight decimal digits of v < 1e8 in ASCII, the
// first in the lowest byte: v is split into halves, quarters and digits
// in the lanes of one word, each split by a multiply and a shift.
func eightDigits(v uint32) uint64 {
	x := uint64(v/1e4) | uint64(v%1e4)<<32
	y := x * 10486 >> 20 & 0x0000007F0000007F // x/100 per 32-bit lane
	x = y | (x-y*100)<<16
	y = x * 103 >> 10 & 0x000F000F000F000F // x/10 per 16-bit lane
	x = y | (x-y*10)<<8
	return x + 0x3030303030303030
}
