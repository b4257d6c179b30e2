package serve

// Fuzzing the request decoder: whatever bytes arrive, DecodeRequest
// either returns a *RequestError (mapped to a clean 400) or a request
// that passes its own validation — never a panic, never an unclassified
// error, never an allocation the limits don't bound. The seed corpus is
// the malformed-request catalogue: negative/zero/overflow dims, NaN and
// Inf payloads, wrong element counts, unknown fields, broken framing.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// malformedCorpus is the shared catalogue of invalid request documents;
// the handler test asserts each gets a clean 400, the fuzzer uses them
// as seeds.
func malformedCorpus() map[string]string {
	return map[string]string{
		"empty":             ``,
		"not_json":          `hello`,
		"wrong_type":        `[1,2,3]`,
		"no_dims":           `{"dtype":"complex64","dir":"forward","data":[]}`,
		"zero_dim":          `{"dims":[0],"dtype":"complex64","dir":"forward","data":[]}`,
		"negative_dim":      `{"dims":[-8],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"non_pow2_dim":      `{"dims":[12],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"too_many_dims":     `{"dims":[2,2,2,2],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"overflow_dim":      `{"dims":[4611686018427387904],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"overflow_product":  `{"dims":[65536,65536,65536],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"float_dim":         `{"dims":[8.5],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"huge_number_dim":   `{"dims":[1e999],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"bad_dtype":         `{"dims":[8],"dtype":"float32","dir":"forward","data":[1,2]}`,
		"bad_dir":           `{"dims":[8],"dtype":"complex64","dir":"sideways","data":[1,2]}`,
		"bad_norm":          `{"dims":[8],"dtype":"complex64","dir":"forward","norm":"wild","data":[1,2]}`,
		"short_data":        `{"dims":[8],"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"long_data":         `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,2,3,4,5,6]}`,
		"odd_data":          `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,2,3]}`,
		"nan_payload":       `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,NaN,3,4]}`,
		"nan_string":        `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,"NaN",3,4]}`,
		"inf_payload":       `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,1e999,3,4]}`,
		"c64_overflow":      `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,2,3,1e300]}`,
		"unknown_field":     `{"dims":[8],"dtype":"complex64","dir":"forward","data":[],"mode":"fast"}`,
		"trailing_garbage":  `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,2,3,4]} {"again":1}`,
		"batch_on_2d":       `{"dims":[4,4],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":1,"dist":16},"data":[]}`,
		"batch_zero":        `{"dims":[8],"dtype":"complex64","dir":"forward","batch":{"how_many":0,"stride":1,"dist":8},"data":[]}`,
		"batch_negative":    `{"dims":[8],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":-1,"dist":8},"data":[]}`,
		"batch_overflow":    `{"dims":[8],"dtype":"complex64","dir":"forward","batch":{"how_many":9007199254740993,"stride":1,"dist":9007199254740993},"data":[]}`,
		"batch_huge_buffer": `{"dims":[8],"dtype":"complex64","dir":"forward","batch":{"how_many":1048576,"stride":1048576,"dist":1048576},"data":[]}`,
		"null_dims":         `{"dims":null,"dtype":"complex64","dir":"forward","data":[1,2]}`,
		"null_data":         `{"dims":[2],"dtype":"complex64","dir":"forward","data":null}`,
		"nested_bomb":       strings.Repeat(`{"dims":`, 64) + strings.Repeat(`}`, 64),
		// encoding/json reads null as 0 (or keeps what a repeated key
		// stored before), lets a repeated key win, merging repeated
		// objects field by field, and folds key case, Unicode included
		// (ſ folds to s): it accepts all of these but null_in_dims.
		"null_in_data":          `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,null,3,4]}`,
		"null_in_dims":          `{"dims":[null],"dtype":"complex64","dir":"forward","data":[1,0]}`,
		"null_over_dims":        `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0],"dims":[null]}`,
		"duplicate_data":        `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,2,3,4],"data":[1,2,3,4]}`,
		"dtype_after_data":      `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0],"dtype":"complex128"}`,
		"merged_batch":          `{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":1},"batch":{"dist":2},"data":[1,0,0,0,0,0,1,0]}`,
		"duplicate_batch_key":   `{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":1,"dist":2,"dist":2},"data":[1,0,0,0,0,0,1,0]}`,
		"case_folded_key":       `{"DIMS":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`,
		"unicode_folded_key":    `{"dimſ":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`,
		"case_folded_batch_key": `{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"HOW_MANY":2,"stride":1,"dist":2},"data":[1,0,0,0,0,0,1,0]}`,
		// Number and string grammar the decoder checks itself.
		"leading_zero":     `{"dims":[2],"dtype":"complex64","dir":"forward","data":[01,0,0,0]}`,
		"bare_point":       `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1.,0,0,0]}`,
		"plus_sign":        `{"dims":[2],"dtype":"complex64","dir":"forward","data":[+1,0,0,0]}`,
		"control_in_enum":  "{\"dims\":[2],\"dtype\":\"complex64\t\",\"dir\":\"forward\",\"data\":[1,0,0,0]}",
		"bad_escape":       `{"dims":[2],"dtype":"complex\x64","dir":"forward","data":[1,0,0,0]}`,
		"trailing_comma":   `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0,]}`,
		"unterminated_key": `{"dims`,
	}
}

// validSeeds are well-formed documents so the fuzzer also explores the
// accepting paths.
func validSeeds() []string {
	return []string{
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"inverse","norm":"unitary","data":[1,0,0,0]}`,
		`{"dims":[2,2],"dtype":"complex128","dir":"forward","data":[1,0,0,0,0,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":1,"dist":2},"data":[1,0,0,0,0,0,1,0]}`,
		" {\"\\u0064ims\" : [ 2 ] ,\"dtype\":\"\\u0063omplex64\",\"dir\":\"forward\",\"norm\":null,\"batch\":null,\"data\":[-0,1e-7,2.5E+1,-3]}\n",
	}
}

func TestDecodeRequestMalformedCorpus(t *testing.T) {
	for name, body := range malformedCorpus() {
		_, err := DecodeRequest(strings.NewReader(body))
		if err == nil {
			t.Errorf("%s: decoded without error", name)
			continue
		}
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("%s: error %v is not a *RequestError", name, err)
		}
	}
}

func TestDecodeRequestValidSeeds(t *testing.T) {
	for _, body := range validSeeds() {
		q, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			t.Errorf("valid seed rejected: %v\n%s", err, body)
			continue
		}
		if err := q.validate(); err != nil {
			t.Errorf("decoded request fails re-validation: %v", err)
		}
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, body := range malformedCorpus() {
		f.Add([]byte(body))
	}
	for _, body := range validSeeds() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("non-RequestError from decoder: %v", err)
			}
			return
		}
		// Accepted documents must be internally consistent: validation
		// is idempotent and the geometry it approved bounds the data.
		if err := q.validate(); err != nil {
			t.Fatalf("accepted request fails re-validation: %v", err)
		}
		if len(q.Data)/2 > MaxElems {
			t.Fatalf("accepted request exceeds MaxElems: %d", len(q.Data)/2)
		}
	})
}
