package serve

// The /v1/transform wire codec, written for this one schema instead of
// going through encoding/json's reflection, whose decoding and encoding
// cost a 1024-point request many times the transform itself (DESIGN
// §10).
//
// Decoding walks the body once. Numbers are checked against the JSON
// grammar and converted by strconv straight into the request's []float64;
// strings (keys and enum values) are unescaped in place. The rules are
// stricter than encoding/json's: keys match exactly (no case folding),
// a key may appear only once, unknown keys and trailing documents are
// rejected, and null is accepted only for the optional norm and batch —
// never inside dims or data, where encoding/json would read it as 0.
// Anything this decoder accepts, encoding/json accepts too and decodes
// to the same Request (codec_test.go holds it to that).
//
// Encoding appends the response straight from the transformed complex
// samples, with the same strconv.AppendFloat calls and exponent clean-up
// as encoding/json, so the bytes equal what json.Encoder.Encode writes
// for the equivalent Response, trailing newline included.
//
// Buffers come from a pool, so a served request's decode and encode
// allocate nothing that grows with its size.

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxPooledBytes caps the codec buffers: a Content-Length presizes the
// body buffer up to it (a longer body grows the buffer only as it
// arrives), and a buffer grown past it is dropped instead of pooled.
const maxPooledBytes = 1 << 20

// codec holds one request's reusable buffers: buf (the raw body, then
// the encoded response: nothing decoded aliases the body), the decoded
// request (Dims and Data keep their capacity between uses) and the
// complex working copy of the payload.
type codec struct {
	buf  []byte
	q    Request
	c64  []complex64
	c128 []complex128
}

var codecPool = sync.Pool{New: func() any { return new(codec) }}

// getCodec takes a pooled codec whose buf fits a body of the declared
// contentLength (-1 when unknown).
func getCodec(contentLength int64) *codec {
	c := codecPool.Get().(*codec)
	if want := min(contentLength+1, maxPooledBytes); int64(cap(c.buf)) < want {
		c.buf = make([]byte, 0, want)
	}
	return c
}

// release returns c to the pool, dropping any buffer grown past
// maxPooledBytes.
func (c *codec) release() {
	if cap(c.buf) > maxPooledBytes {
		c.buf = nil
	}
	if 8*cap(c.q.Data) > maxPooledBytes {
		c.q.Data = nil
	}
	if 8*cap(c.c64) > maxPooledBytes {
		c.c64 = nil
	}
	if 16*cap(c.c128) > maxPooledBytes {
		c.c128 = nil
	}
	codecPool.Put(c)
}

// decode reads the whole body from r, then decodes and validates it
// into c.q. All failures are *RequestError.
func (c *codec) decode(r io.Reader) (*Request, error) {
	var err error
	if c.buf, err = readBody(r, c.buf[:0]); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, badRequest("request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, badRequest("malformed request: reading body: %v", err)
	}
	if err := decodeRequest(c.buf, &c.q); err != nil {
		return nil, err
	}
	if err := c.q.validate(); err != nil {
		return nil, err
	}
	return &c.q, nil
}

// readBody is io.ReadAll appending to buf, so a pooled buffer's
// capacity is reused.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Request keys, indexed by the key* constants.
var requestKeys = []string{"dims", "dtype", "dir", "norm", "batch", "data"}

const (
	keyDims = iota
	keyDtype
	keyDir
	keyNorm
	keyBatch
	keyData
)

// batchKeys are BatchSpec's keys, in field order.
var batchKeys = []string{"how_many", "stride", "dist"}

// decodeRequest parses one request document from body into q, reusing
// the capacity of q.Dims and q.Data. It checks syntax and types only;
// validate checks the values.
func decodeRequest(body []byte, q *Request) error {
	*q = Request{Dims: q.Dims[:0], Data: q.Data[:0]}
	d := decoder{buf: body}
	err := d.object(requestKeys, func(k int) error {
		var err error
		switch k {
		case keyDims:
			err = d.array(func() error {
				v, err := d.int()
				q.Dims = append(q.Dims, v)
				return err
			})
		case keyDtype:
			q.Dtype, err = d.enum()
		case keyDir:
			q.Dir, err = d.enum()
		case keyNorm:
			if !d.null() {
				q.Norm, err = d.enum()
			}
		case keyBatch:
			if !d.null() {
				b := new(BatchSpec)
				q.Batch = b
				fields := [...]*int{&b.HowMany, &b.Stride, &b.Dist}
				err = d.object(batchKeys, func(k int) (err error) {
					*fields[k], err = d.int()
					return err
				})
			}
		case keyData:
			err = d.array(func() error {
				v, err := d.float()
				q.Data = append(q.Data, v)
				return err
			})
		}
		return err
	})
	if err != nil {
		return err
	}
	if d.ws(); d.pos < len(d.buf) {
		return badRequest("trailing data after request document")
	}
	return nil
}

// decoder is a cursor over one JSON document. Every reader skips the
// whitespace in front of its token.
type decoder struct {
	buf []byte
	pos int
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *decoder) consume(c byte) bool {
	if d.ws(); d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// syntaxErr reports the byte at the cursor where want was expected.
func (d *decoder) syntaxErr(want string) error {
	if d.pos >= len(d.buf) {
		return badRequest("malformed request: unexpected end of body, want %s", want)
	}
	return badRequest("malformed request: unexpected %q at offset %d, want %s", d.buf[d.pos], d.pos, want)
}

// object walks a JSON object whose keys must be distinct members of
// keys, matched exactly after unescaping. field is called with each
// key's index and the cursor at its value, which it must consume.
func (d *decoder) object(keys []string, field func(k int) error) error {
	if !d.consume('{') {
		return d.syntaxErr("'{'")
	}
	if d.consume('}') {
		return nil
	}
	var seen uint
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		k := -1
		for i, s := range keys {
			if string(key) == s {
				k = i
				break
			}
		}
		switch {
		case k < 0:
			return badRequest("malformed request: unknown field %q", key)
		case seen&(1<<k) != 0:
			return badRequest("malformed request: duplicate field %q", key)
		}
		seen |= 1 << k
		if !d.consume(':') {
			return d.syntaxErr("':'")
		}
		if err := field(k); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.syntaxErr("',' or '}'")
	}
}

// array walks a JSON array, calling elem with the cursor at each
// element, which it must consume.
func (d *decoder) array(elem func() error) error {
	if !d.consume('[') {
		return d.syntaxErr("'['")
	}
	if d.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return nil
		}
		return d.syntaxErr("',' or ']'")
	}
}

// null consumes a null literal, if one is next.
func (d *decoder) null() bool {
	if d.ws(); len(d.buf)-d.pos >= 4 && string(d.buf[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// number scans one number literal of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (d *decoder) number() ([]byte, error) {
	d.ws()
	b, start := d.buf, d.pos
	i, ok := start, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, ok = digits(b, i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	d.pos = i
	if !ok {
		return nil, d.syntaxErr("a digit")
	}
	return b[start:i], nil
}

// digits skips the run of decimal digits at b[i:] and reports whether
// there was at least one.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j, j > i
}

// float reads a number as a float64; one beyond float64's range is an
// error, as in encoding/json.
func (d *decoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, badRequest("malformed request: number %s overflows float64", lit)
	}
	return v, nil
}

// int reads a number that must be an integer in int's range.
func (d *decoder) int() (int, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(string(lit))
	if err != nil {
		return 0, badRequest("malformed request: number %s is not an int", lit)
	}
	return v, nil
}

// enum reads a string value into a new string (the unescaped bytes
// alias the body buffer, which is reused); validate checks it against
// the wire's enum words.
func (d *decoder) enum() (string, error) {
	s, err := d.str()
	return string(s), err
}

// str reads a string and returns its contents, unescaped in place in
// the buffer (an escape never decodes to more bytes than it spans).
// A \u escape of a UTF-16 surrogate becomes U+FFFD: surrogate pairs are
// not joined, as no key or enum word of the schema contains one.
func (d *decoder) str() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.syntaxErr("'\"'")
	}
	b, start := d.buf, d.pos
	w := start
	for r := start; r < len(b); {
		c := b[r]
		switch {
		case c == '"':
			d.pos = r + 1
			return b[start:w], nil
		case c < 0x20:
			d.pos = r
			return nil, d.syntaxErr("a string character")
		case c != '\\':
			b[w] = c
			w, r = w+1, r+1
			continue
		}
		if r+1 == len(b) {
			break
		}
		switch e := b[r+1]; e {
		case '"', '\\', '/':
			b[w] = e
		case 'b':
			b[w] = '\b'
		case 'f':
			b[w] = '\f'
		case 'n':
			b[w] = '\n'
		case 'r':
			b[w] = '\r'
		case 't':
			b[w] = '\t'
		case 'u':
			var ch uint64
			err := strconv.ErrSyntax
			if len(b)-r >= 6 {
				ch, err = strconv.ParseUint(string(b[r+2:r+6]), 16, 16)
			}
			if err != nil {
				d.pos = r
				return nil, d.syntaxErr("\\u and four hex digits")
			}
			r += 6
			w += utf8.EncodeRune(b[w:], rune(ch))
			continue
		default:
			d.pos = r
			return nil, d.syntaxErr("a valid escape")
		}
		w, r = w+1, r+2
	}
	d.pos = len(b)
	return nil, d.syntaxErr("'\"'")
}

// appendResponse appends the response to q carrying the transformed
// samples x: the bytes json.Encoder.Encode writes for
// Response{Dims: q.Dims, Dtype: q.Dtype, Dir: q.Dir, Data: x as
// interleaved float64s}. A sample the transform overflowed to ±Inf or
// NaN has no JSON encoding and is a *RequestError; dst is then returned
// as it came.
func appendResponse[C complex64 | complex128](dst []byte, q *Request, x []C) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"dims":[`...)
	for i, n := range q.Dims {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	// Dtype and Dir are validated wire words: nothing to escape.
	dst = append(dst, `],"dtype":"`...)
	dst = append(dst, q.Dtype...)
	dst = append(dst, `","dir":"`...)
	dst = append(dst, q.Dir...)
	dst = append(dst, `","data":[`...)
	for i, v := range x {
		// Widening complex64 is exact: each part goes out as the
		// float64 equal to its float32, which round-trips bit for bit.
		z := complex128(v)
		re, im := real(z), imag(z)
		// Abs(f) <= MaxFloat64 is false exactly for ±Inf and NaN.
		if !(math.Abs(re) <= math.MaxFloat64 && math.Abs(im) <= math.MaxFloat64) {
			return dst[:start], badRequest("transform output element %d = %v is not finite: the input overflows %s", i, z, q.Dtype)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, re)
		dst = append(dst, ',')
		dst = appendFloat(dst, im)
	}
	return append(dst, "]}\n"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// round-tripping digits, in exponent form outside [1e-6, 1e21), with a
// one-digit negative exponent unpadded (e-7, not e-07).
func appendFloat(dst []byte, f float64) []byte {
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

// toComplex converts interleaved re,im floats to complex samples in
// dst's storage. Narrowing to complex64 rounds each part to float32,
// which validate has checked cannot overflow; float32-representable
// payloads convert exactly.
func toComplex[C complex64 | complex128](dst []C, data []float64) []C {
	n := len(data) / 2
	if cap(dst) < n {
		dst = make([]C, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = C(complex(data[2*i], data[2*i+1]))
	}
	return dst
}
