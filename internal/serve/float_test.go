package serve

// The codec's number conversions against the strconv calls they
// replaced (referenceFloat and referenceAppendFloat in codec_test.go):
// every literal parses to the same bits, and every float64 formats to
// the same bytes and parses back to itself.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseLiteral decodes lit, which must be one whole number literal.
func parseLiteral(lit []byte) (float64, error) {
	d := decoder{buf: lit}
	v, err := d.float()
	if err == nil && d.pos != len(lit) {
		return v, errors.New("literal not consumed: stopped at offset " + strconv.Itoa(d.pos))
	}
	return v, err
}

// checkLiteral requires lit to parse to strconv.ParseFloat's bits, or,
// where that overflows, to the codec's "overflows float64" 400.
func checkLiteral(t testing.TB, lit string) {
	t.Helper()
	got, err := parseLiteral([]byte(lit))
	want, werr := referenceFloat(lit)
	if werr != nil {
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "overflows float64") {
			t.Fatalf("%q: got %v, %v; want the overflow 400 (strconv: %v)", lit, got, err, werr)
		}
		return
	}
	if err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: got %v (%#x), %v; want %v (%#x)", lit, got, math.Float64bits(got), err, want, math.Float64bits(want))
	}
}

// checkFloat requires the finite v to format to encoding/json's bytes
// and parse back to its own bits.
func checkFloat(t testing.TB, v float64) {
	t.Helper()
	got, want := appendFloat(nil, v), referenceAppendFloat(nil, v)
	if !bytes.Equal(got, want) {
		t.Fatalf("%#x: formatted %s, want %s", math.Float64bits(v), got, want)
	}
	back, err := parseLiteral(got)
	if err != nil || math.Float64bits(back) != math.Float64bits(v) {
		t.Fatalf("%#x: %s parsed back to %#x, %v", math.Float64bits(v), got, math.Float64bits(back), err)
	}
}

// floatCorpus holds literals at the edges of each conversion path.
func floatCorpus() []string {
	long := "0." + strings.Repeat("0", 400) + "1"
	return []string{
		// Zeros and the sign.
		"0", "-0", "0.0", "-0.0", "0e0", "-0E-5", "0e99999", "-0.000e+400",
		// Clinger's fast path and its edges.
		"1", "-1", "1.5", "0.1", "-2.5e-3", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "123456.789e3",
		// 19 significant digits: the most the significand holds.
		"1234567890123456789", "9999999999999999999", "1.234567890123456789",
		"-0.0000001234567890123456789e-300", "1844674407370955161",
		// 20 and more: the trailing digits decide only if nonzero.
		"12345678901234567890", "99999999999999999999", "18446744073709551615",
		"18446744073709551616", "1.0000000000000000000", "12345678901234567890e-5",
		"1.00000000000000000000000000000000000000000000001",
		"100000000000000000000000000000000000000000000000000e-50",
		// Halfway between two float64s: ties go to even.
		"9007199254740993", "9007199254740995", "4503599627370497.5",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"1.00000000000000033306690738754696212708950042724609375",
		"9007199254740993.0000000000000000000000001",
		"2.2250738585072011e-308", "2.2250738585072012e-308",
		"0.30000000000000004", "7.3177701707893310e+15",
		// Subnormals and the normal boundary.
		"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
		"2.4703282292062328e-324", "2.2250738585072009e-308",
		"2.2250738585072014e-308", "1e-310", "-1e-320", "3e-324", "7.4e-324",
		// Overflow: a 400, as before.
		"1e309", "1.7976931348623157e308", "1.7976931348623158e308",
		"1.7976931348623159e308", "-1e400", "1e99999999999999999999",
		"179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497792",
		// Underflow to zero.
		"1e-400", "-1e-400", "2e-324", "1e-99999999999999999999", long, "-" + long,
	}
}

func TestParseFloatCorpus(t *testing.T) {
	for _, lit := range floatCorpus() {
		checkLiteral(t, lit)
	}
}

// TestFloatRandomBits formats random float64 bit patterns and parses
// them back, then parses the same values written in strconv's other
// forms and precisions, and halfway points between neighbours.
func TestFloatRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	count := 50000
	if testing.Short() {
		count = 5000
	}
	var lit []byte
	for i := 0; i < count; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		checkFloat(t, v)
		for _, f := range []byte{'e', 'E', 'g'} {
			lit = strconv.AppendFloat(lit[:0], v, f, rng.Intn(22)-1, 64)
			checkLiteral(t, string(lit))
		}
		if math.Abs(v) < 1e30 {
			lit = strconv.AppendFloat(lit[:0], v, 'f', rng.Intn(40)-1, 64)
			checkLiteral(t, string(lit))
		}
		if i%32 == 0 {
			checkHalfway(t, v)
		}
	}
}

// checkHalfway parses the exact midpoint between v and the next float64
// up, and its roundings to 16 through 20 significant digits.
func checkHalfway(t *testing.T, v float64) {
	t.Helper()
	up := math.Nextafter(v, math.Inf(1))
	if math.IsInf(up, 0) {
		return
	}
	var mid big.Float
	mid.SetPrec(2100).Add(big.NewFloat(v), big.NewFloat(up))
	mid.Quo(&mid, big.NewFloat(2))
	checkLiteral(t, mid.Text('e', 800))
	for digits := 16; digits <= 20; digits++ {
		checkLiteral(t, mid.Text('e', digits-1))
	}
}

// TestFloat32Sweep covers the payloads of complex64 requests: a strided
// sweep of float32 bit patterns, each widened to the float64 the wire
// carries.
func TestFloat32Sweep(t *testing.T) {
	stride := uint64(1<<15 + 1)
	if testing.Short() {
		stride = 1<<18 + 1
	}
	for b := uint64(0); b < 1<<32; b += stride {
		v := float64(math.Float32frombits(uint32(b)))
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkFloat(t, v)
		}
	}
}

// TestFloatPowersOfTwo covers every binary exponent: each power of two
// in [2^-1074, 2^1023] and its neighbours, whose rounding intervals are
// the irregular ones at the bottom of each binade.
func TestFloatPowersOfTwo(t *testing.T) {
	for e := -1074; e <= 1023; e++ {
		v := math.Ldexp(1, e)
		for _, w := range []float64{math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1))} {
			if !math.IsInf(w, 0) {
				checkFloat(t, w)
				checkFloat(t, -w)
			}
		}
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, lit := range floatCorpus() {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		s := strings.Trim(lit, " \t\n\r")
		if s == "" || !(s[0] == '-' || '0' <= s[0] && s[0] <= '9') || !json.Valid([]byte(s)) {
			return
		}
		checkLiteral(t, s)
	})
}

func FuzzFormatFloat(f *testing.F) {
	for _, v := range []float64{0, 1, -2.5, 0.1, 1e-7, 1e21, 5e-324, math.MaxFloat64, 1 << 52} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		if v := math.Float64frombits(b); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkFloat(t, v)
		}
	})
}

// benchSamples are the serve workload's kind of sample: complex64
// parts in [-1, 1) widened to float64, a power of two of them.
func benchSamples() []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 2048)
	for i := range v {
		v[i] = float64(float32(2*rng.Float64() - 1))
	}
	return v
}

func BenchmarkAppendFloat(b *testing.B) {
	v := benchSamples()
	for _, bc := range []struct {
		name string
		f    func([]byte, float64) []byte
	}{{"schubfach", appendFloat}, {"strconv", referenceAppendFloat}} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				buf = bc.f(buf[:0], v[i&(len(v)-1)])
			}
		})
	}
}

func BenchmarkParseFloat(b *testing.B) {
	v := benchSamples()
	lits := make([][]byte, len(v))
	for i, x := range v {
		lits[i] = referenceAppendFloat(nil, x)
	}
	b.Run("eisel-lemire", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := decoder{buf: lits[i&(len(lits)-1)]}
			if _, err := d.float(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := referenceFloat(string(lits[i&(len(lits)-1)])); err != nil {
				b.Fatal(err)
			}
		}
	})
}
