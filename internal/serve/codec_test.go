package serve

// The wire codec against encoding/json, the codec it replaced and now
// the reference: the decoder accepts nothing encoding/json rejects and
// decodes what it accepts to the same Request, bit for bit; the encoder
// writes exactly the bytes json.Encoder.Encode writes. Its number
// conversions have their own oracles, the strconv calls they replaced
// (float_test.go).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceDecode is the encoding/json request decoder the service ran
// before the wire codec: unknown fields and trailing documents
// rejected, then validate.
func referenceDecode(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q Request
	if err := dec.Decode(&q); err != nil {
		return nil, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("trailing data after request document")
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// referenceEncode is the encoding/json response encoder the service ran
// before the wire codec.
func referenceEncode[C complex64 | complex128](q *Request, x []C) ([]byte, error) {
	data := make([]float64, 0, 2*len(x))
	switch x := any(x).(type) {
	case []complex64:
		for _, v := range x {
			data = append(data, float64(real(v)), float64(imag(v)))
		}
	case []complex128:
		for _, v := range x {
			data = append(data, real(v), imag(v))
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&Response{Dims: q.Dims, Dtype: q.Dtype, Dir: q.Dir, Data: data})
	return buf.Bytes(), err
}

// referenceFloat is the decoder's conversion of a number literal before
// Eisel–Lemire: strconv.ParseFloat, an out-of-range literal an error.
func referenceFloat(lit string) (float64, error) {
	return strconv.ParseFloat(lit, 64)
}

// referenceAppendFloat is the encoder's conversion of a sample before
// Schubfach: encoding/json's own, strconv.AppendFloat with the exponent
// clean-up.
func referenceAppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// sameRequest reports whether a and b are deep-equal, Data bit for bit.
func sameRequest(a, b *Request) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	x, y := *a, *b
	x.Data, y.Data = nil, nil
	return reflect.DeepEqual(x, y)
}

func FuzzDecoderDifferential(f *testing.F) {
	for _, body := range malformedCorpus() {
		f.Add([]byte(body))
	}
	for _, body := range validSeeds() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := DecodeRequest(bytes.NewReader(doc))
		if err != nil {
			return
		}
		want, err := referenceDecode(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("accepted a document encoding/json rejects (%v):\n%q", err, doc)
		}
		if !sameRequest(got, want) {
			t.Fatalf("decoders disagree on %q:\ngot  %+v\nwant %+v", doc, got, want)
		}
	})
}

// randomRequest builds a valid request: both dtypes, directions, every
// norm, 1D to 3D or a 1D batch layout, samples of every magnitude
// (float32-representable for complex64, as the wire contract needs).
func randomRequest(rng *rand.Rand, i int) *Request {
	q := &Request{
		Dtype: []string{dtypeC64, dtypeC128}[i%2],
		Dir:   []string{"forward", "inverse"}[i/2%2],
		Norm:  []string{"", "byn", "none", "unitary"}[i/4%4],
	}
	elems := 1
	if i/16%2 == 1 {
		n := 1 << rng.Intn(4)
		b := &BatchSpec{HowMany: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Dist: 1 + rng.Intn(2*n)}
		q.Dims, q.Batch = []int{n}, b
		elems = (b.HowMany-1)*b.Dist + (n-1)*b.Stride + 1
	} else {
		for r := 1 + rng.Intn(MaxDims); r > 0; r-- {
			d := 1 << rng.Intn(4)
			q.Dims = append(q.Dims, d)
			elems *= d
		}
	}
	q.Data = make([]float64, 2*elems)
	for k := range q.Data {
		var v float64
		if q.Dtype == dtypeC64 {
			v = float64(math.Float32frombits(rng.Uint32()))
		} else {
			v = math.Float64frombits(rng.Uint64())
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || rng.Intn(4) == 0 {
			v = float64(rng.Intn(5) - 2) // small integers, -0 aside
		}
		q.Data[k] = v
	}
	return q
}

// wireDoc renders q as another client might: json.Marshal's tokens with
// the keys shuffled, random whitespace between tokens, absent optional
// fields sometimes sent as null, and strings partly \u-escaped.
func wireDoc(t *testing.T, rng *rand.Rand, q *Request) string {
	t.Helper()
	raw, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"norm", "batch"} {
		if _, ok := fields[k]; !ok && rng.Intn(2) == 0 {
			fields[k] = json.RawMessage("null")
		}
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var b strings.Builder
	ws := func() {
		for n := rng.Intn(3); n > 0; n-- {
			b.WriteByte(" \t\n\r"[rng.Intn(4)])
		}
	}
	str := func(s string) {
		b.WriteByte('"')
		for _, c := range []byte(s) {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, `\u%04x`, c)
			} else {
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	ws()
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			ws()
			b.WriteByte(',')
		}
		ws()
		str(k)
		ws()
		b.WriteByte(':')
		ws()
		v := fields[k]
		if v[0] == '"' {
			var s string
			if err := json.Unmarshal(v, &s); err != nil {
				t.Fatal(err)
			}
			str(s)
			continue
		}
		// Numbers, arrays and the batch object: spread out every
		// structural token (batch keys contain none).
		for _, c := range v {
			if strings.IndexByte("[]{},:", c) >= 0 {
				ws()
				b.WriteByte(c)
				ws()
			} else {
				b.WriteByte(c)
			}
		}
	}
	ws()
	b.WriteByte('}')
	ws()
	return b.String()
}

func TestDecoderMatchesReferenceGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		q := randomRequest(rng, i)
		doc := wireDoc(t, rng, q)
		got, err := DecodeRequest(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("request %d rejected: %v\n%s", i, err, doc)
		}
		want, err := referenceDecode(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("request %d rejected by encoding/json: %v\n%s", i, err, doc)
		}
		if !sameRequest(got, want) || !sameRequest(got, q) {
			t.Fatalf("request %d decoded differently:\nsent %+v\ngot  %+v\njson %+v\n%s", i, q, got, want, doc)
		}
	}
}

func TestEncoderMatchesReferenceBytes(t *testing.T) {
	f32 := []float32{
		0, float32(math.Copysign(0, -1)), 1, -2.5, 0.1, 1.0 / 3, 123456.79,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest subnormal
		math.MaxFloat32, -math.MaxFloat32,
		math.Nextafter32(1e-6, 0), 1e-6, math.Nextafter32(1e-6, 1),
		math.Nextafter32(1e21, 0), 1e21, math.Nextafter32(1e21, math.MaxFloat32),
		1e-7, -1e-9, 1e20, 3e38,
	}
	f64 := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 1.0 / 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1),
		math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)),
		1e-7, -1e-300, 1e300, 5e-324, 123456.789,
	}
	x64 := make([]complex64, len(f32))
	for i, v := range f32 {
		x64[i] = complex(v, f32[len(f32)-1-i])
	}
	x128 := make([]complex128, len(f64))
	for i, v := range f64 {
		x128[i] = complex(v, f64[len(f64)-1-i])
	}
	for _, dims := range [][]int{{len(f32)}, {2, 11}, {1, 2, 11}} {
		q := &Request{Dims: dims, Dtype: dtypeC64, Dir: "forward"}
		checkEncoding(t, q, x64)
		q = &Request{Dims: dims, Dtype: dtypeC128, Dir: "inverse"}
		checkEncoding(t, q, x128)
	}

	// A non-finite sample has no JSON encoding: both encoders refuse,
	// the codec with a *RequestError and dst untouched.
	for _, bad := range []complex128{complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 0)} {
		q := &Request{Dims: []int{2}, Dtype: dtypeC128, Dir: "forward"}
		x := []complex128{1, bad}
		if _, err := referenceEncode(q, x); err == nil {
			t.Fatalf("encoding/json encoded %v", bad)
		}
		dst, err := appendResponse([]byte("prefix"), q, x)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || string(dst) != "prefix" {
			t.Fatalf("sample %v: err %v, dst %q; want a *RequestError and dst untouched", bad, err, dst)
		}
	}
}

func checkEncoding[C complex64 | complex128](t *testing.T, q *Request, x []C) {
	t.Helper()
	want, err := referenceEncode(q, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendResponse([]byte("prefix"), q, x)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s dims %v:\ngot  %s\nwant %s", q.Dtype, q.Dims, got[len("prefix"):], want)
	}
}

// TestCodecAllocsIndependentOfN is the allocation ratchet: decoding a
// 1D request and encoding its response on reused buffers allocates as
// many objects at n=4096 as at n=64, so nothing is allocated per sample.
func TestCodecAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		data := make([]float64, 2*n)
		fillSignal(data, n)
		body, err := json.Marshal(&Request{Dims: []int{n}, Dtype: dtypeC64, Dir: "forward", Data: data})
		if err != nil {
			t.Fatal(err)
		}
		var c codec
		return testing.AllocsPerRun(20, func() {
			q, err := c.decode(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			c.c64 = toComplex(c.c64, q.Data)
			if c.buf, err = appendResponse(c.buf[:0], q, c.c64); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	t.Logf("allocations per decode+encode: %v at n=64, %v at n=4096", small, large)
	if small != large {
		t.Fatalf("decode+encode allocates %v objects at n=64 but %v at n=4096: something is allocated per sample", small, large)
	}
}
