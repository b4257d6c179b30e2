package fft

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// pinnedOutputs holds the FNV-1a hash of the output bits of the default
// plan (codelets on, NormNone) on pinInput, per size, as {complex64
// forward, complex64 inverse, complex128 forward, complex128 inverse}.
// 8..1024 are also the values of the fully unrolled kernels that the
// looped ones replaced. 2048..8192 used to run a generic radix-2/4/8
// prefix pass ahead of the 1024-point kernel and now run Radices(n) in
// one kernel, so their values are new, except in three 8192 columns:
// there the old prefix pass differed only in one ±i twiddle (its table
// carries a 6e-17 residue), and the results rounded the same.
var pinnedOutputs = map[int][4]uint64{
	8:    {0xeb5ca8d9a889dc14, 0x6b5b44032d0e7070, 0x727562d8b14efafc, 0xe1e9366999f59bd8},
	16:   {0x85d9b46f278fc45, 0x6060d4542274e99d, 0x61cede9fc0b185a4, 0x10e63533a79f4fea},
	32:   {0x3225d3d33793bd08, 0x53aa0f0b7ddc7698, 0x383a67d6543f6910, 0x22855c4abe7e7e95},
	64:   {0xd61594fcae9ed60a, 0x4a443e80067dba56, 0xd2adc3aa808884ca, 0x32e12db1eac542c3},
	128:  {0xbb1996f8849731a2, 0x78f95dfff13bb7d8, 0xbd6a63e6e913c2bc, 0xeb0b6e4a221b6787},
	256:  {0xbd5704eabcb27e3a, 0xea1dda63e015c953, 0x272052371af4fbe3, 0xba19d1e01c8084ea},
	512:  {0xfec605ced61ea8e8, 0xbdf20f2c2f3f2d15, 0xb6c25b2578a0f987, 0x28855a0351397dad},
	1024: {0xd44e81cda21325bf, 0x575888d654db2ddf, 0xeb1715e119a5a73a, 0x509615cf3f599396},
	2048: {0x9bd10ba0742fbbd3, 0xd399a2131c1f70c8, 0x6278d36d171a70d0, 0x7e47d762e467d1f5},
	4096: {0xea0245000eb7705c, 0xac98c706f0d2ce2c, 0x5e03d0b92c29883, 0x6c1996897c9bce47},
	8192: {0x184a3440e94ecc9b, 0x208ebb87e9837c57, 0x4a4f16d3593c1dec, 0xb54af722d65240c6},
}

// pinInput returns n samples in [-1, 1) from a splitmix64 stream, so the
// pinned hashes depend on no library random number generator.
func pinInput[T Complex](n int) []T {
	x := make([]T, n)
	s := uint64(0)
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11)/(1<<52) - 1
	}
	for i := range x {
		re := next()
		x[i] = T(complex(re, next()))
	}
	return x
}

// outputBitsHash is the FNV-1a hash of the little-endian bits of x.
func outputBitsHash[T Complex](x []T) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, v := range x {
		switch v := any(v).(type) {
		case complex64:
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(real(v)))
			binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(imag(v)))
			h.Write(b[:8])
		case complex128:
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func pinnedHash[T Complex](t *testing.T, n int, dir Direction) uint64 {
	t.Helper()
	p, err := NewPlan[T](n, WithNorm(NormNone))
	if err != nil {
		t.Fatal(err)
	}
	x := pinInput[T](n)
	if err := p.Transform(x, dir); err != nil {
		t.Fatal(err)
	}
	return outputBitsHash(x)
}

// TestPinnedOutputs pins the exact output bits of every codelet size
// for both element types and both directions. The differential tests
// hold the kernels to a ULP or relative-error bound against the pass
// loop; this test catches any change at all, so a kernel rewrite that
// claims bit identity has to keep it.
func TestPinnedOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse a multiply and an add into one rounding.
		t.Skip("the pinned bits are those of amd64 builds")
	}
	for n := 8; n <= 8192; n *= 2 {
		got := [4]uint64{
			pinnedHash[complex64](t, n, Forward), pinnedHash[complex64](t, n, Inverse),
			pinnedHash[complex128](t, n, Forward), pinnedHash[complex128](t, n, Inverse),
		}
		if want := pinnedOutputs[n]; got != want {
			t.Errorf("n=%d: output hashes {%#x, %#x, %#x, %#x}, want %#x", n, got[0], got[1], got[2], got[3], want)
		}
	}
}
