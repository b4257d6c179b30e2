package serve

// Wire format of the transform service. A request names a shape
// (1–3 power-of-two dims), an element type, a direction and an optional
// normalization, and carries the samples as interleaved re,im float64
// pairs — the only JSON encoding that round-trips float32 payloads
// bit-exactly (every float32 is exactly representable as a float64 and
// back). 1D requests may add a batch layout in the FFTW advanced-
// interface sense (howMany/stride/dist over one flat buffer).
//
// The decoder (codec.go) is strict: unknown, repeated or case-folded
// keys, null samples or dims, malformed geometry, overflowing or
// non-finite payloads and wrong element counts are all client errors
// (*RequestError → HTTP 400), never panics — locked in by the fuzz tests.

import (
	"fmt"
	"io"
	"math"
	"slices"

	"xmtfft/internal/fft"
)

// Decoder guard rails. MaxElems bounds the total complex elements a
// single request may name (data, or the batch buffer it implies), so a
// tiny JSON body cannot demand a multi-gigabyte allocation.
const (
	MaxDims  = 3
	MaxElems = 1 << 24 // 16 Mi complex elements = 256 MiB as complex128
)

// Request is one transform call.
type Request struct {
	Dims  []int      `json:"dims"`            // 1–3 power-of-two extents
	Dtype string     `json:"dtype"`           // "complex64" | "complex128"
	Dir   string     `json:"dir"`             // "forward" | "inverse"
	Norm  string     `json:"norm,omitempty"`  // "" (=byn) | "byn" | "none" | "unitary"
	Batch *BatchSpec `json:"batch,omitempty"` // 1D only
	Data  []float64  `json:"data"`            // interleaved re,im
}

// BatchSpec is the advanced 1D layout: element j of transform t lives
// at data index t*Dist + j*Stride (complex elements, not floats).
type BatchSpec struct {
	HowMany int `json:"how_many"`
	Stride  int `json:"stride"`
	Dist    int `json:"dist"`
}

// Response mirrors the request geometry and carries the transformed
// samples. The server writes this shape without building one
// (appendResponse); clients decode into it.
type Response struct {
	Dims  []int  `json:"dims"`
	Dtype string `json:"dtype"`
	Dir   string `json:"dir"`
	// Batched is never sent, so a decoded response leaves it 0.
	//
	// Deprecated: requests are not coalesced, so there is no shared
	// pass to report.
	Batched int       `json:"batched,omitempty"`
	Data    []float64 `json:"data"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// RequestError marks a client error: the request was understood to be
// invalid, as opposed to a server-side failure. Handlers map it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// DecodeRequest reads one strict JSON request: the same decoder the
// server runs, with unknown or repeated keys, trailing data, and
// geometry or payload errors rejected. All failures are *RequestError.
func DecodeRequest(r io.Reader) (*Request, error) {
	c := getCodec(-1)
	defer c.release()
	q, err := c.decode(r)
	if err != nil {
		return nil, err
	}
	// The codec's slices go back to the pool: hand out copies.
	out := *q
	out.Dims, out.Data = slices.Clone(q.Dims), slices.Clone(q.Data)
	return &out, nil
}

// validate checks geometry and payload against the limits.
func (q *Request) validate() error {
	if len(q.Dims) < 1 || len(q.Dims) > MaxDims {
		return badRequest("dims must have 1 to %d entries, got %d", MaxDims, len(q.Dims))
	}
	total := 1
	for i, d := range q.Dims {
		if !fft.IsPowerOfTwo(d) {
			return badRequest("dims[%d] = %d is not a positive power of two", i, d)
		}
		if d > MaxElems || total > MaxElems/d {
			return badRequest("dims %v exceed the %d-element limit", q.Dims, MaxElems)
		}
		total *= d
	}
	if _, err := q.dtypeBits(); err != nil {
		return err
	}
	if _, err := q.direction(); err != nil {
		return err
	}
	if _, err := q.normalization(); err != nil {
		return err
	}
	need := total
	if q.Batch != nil {
		if len(q.Dims) != 1 {
			return badRequest("batch layout applies to 1D transforms only, got %d dims", len(q.Dims))
		}
		b := q.Batch
		if b.HowMany < 1 || b.Stride < 1 || b.Dist < 1 {
			return badRequest("batch geometry (how_many=%d, stride=%d, dist=%d) must be positive", b.HowMany, b.Stride, b.Dist)
		}
		// minLen = (howMany-1)*dist + (n-1)*stride + 1 with overflow checks.
		n := q.Dims[0]
		if b.HowMany > MaxElems || b.Dist > MaxElems || b.Stride > MaxElems ||
			(b.HowMany-1) > 0 && b.Dist > MaxElems/(b.HowMany-1) ||
			(n-1) > 0 && b.Stride > MaxElems/(n-1) {
			return badRequest("batch layout (how_many=%d, stride=%d, dist=%d) exceeds the %d-element limit", b.HowMany, b.Stride, b.Dist, MaxElems)
		}
		need = (b.HowMany-1)*b.Dist + (n-1)*b.Stride + 1
		if need > MaxElems {
			return badRequest("batch buffer of %d elements exceeds the %d-element limit", need, MaxElems)
		}
	}
	if len(q.Data) != 2*need {
		return badRequest("data has %d floats, want %d (2 per complex element for %d elements)", len(q.Data), 2*need, need)
	}
	narrow := q.Dtype == dtypeC64
	for i, v := range q.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequest("data[%d] = %v is not finite", i, v)
		}
		if narrow && math.Abs(v) > math.MaxFloat32 {
			return badRequest("data[%d] = %g overflows complex64", i, v)
		}
	}
	return nil
}

// Wire enum values.
const (
	dtypeC64  = "complex64"
	dtypeC128 = "complex128"
)

// dtypeBits maps the dtype string to the component width (32 or 64).
func (q *Request) dtypeBits() (int, error) {
	switch q.Dtype {
	case dtypeC64:
		return 32, nil
	case dtypeC128:
		return 64, nil
	}
	return 0, badRequest("dtype %q is not %q or %q", q.Dtype, dtypeC64, dtypeC128)
}

// direction maps the dir string to the fft direction.
func (q *Request) direction() (fft.Direction, error) {
	switch q.Dir {
	case "forward":
		return fft.Forward, nil
	case "inverse":
		return fft.Inverse, nil
	}
	return 0, badRequest("dir %q is not \"forward\" or \"inverse\"", q.Dir)
}

// normalization maps the norm string to the fft normalization
// ("" defaults to byn, the library default).
func (q *Request) normalization() (fft.Normalization, error) {
	switch q.Norm {
	case "", "byn":
		return fft.NormByN, nil
	case "none":
		return fft.NormNone, nil
	case "unitary":
		return fft.NormUnitary, nil
	}
	return 0, badRequest("norm %q is not \"byn\", \"none\" or \"unitary\"", q.Norm)
}
