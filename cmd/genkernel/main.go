// Command genkernel generates the DFT codelet kernels in
// internal/fft/codelet: for each covered size it emits the Stockham
// decimation-in-frequency pass sequence as one function per pass, each
// pass a loop over its butterflies (j) and offsets (d) with trip counts
// and strides fixed at generation time — the genfft/FFTW "codelet"
// technique with twiddle loops. The passes index *[n]T arrays with
// constant strides, so every bounds check folds away, and each one reads
// its twiddles from the shared table of its pass length (twiddle.go in
// the codelet package). What is constant stays folded into the
// instruction stream: the j = 0 butterfly (all twiddles 1) is peeled
// and multiplies by nothing, the radix-8 butterfly's ±i become a
// real/imaginary swap and its ω_8 a √½ literal.
//
// The pass decomposition is exactly fft.Radices (radix 8 while
// possible), so every twiddled pass is radix 8: a final radix-4 or
// radix-2 pass has sub-transform length equal to its radix and only the
// j = 0 butterfly. When the pass count is odd the final pass runs in
// place: each of its butterflies reads and writes the same index set and
// needs no second buffer — the ping-pong still ends with the result in x
// and no copy is emitted.
//
// Kernels are emitted per element type (complex64 and complex128) and
// per direction. The inverse kernels read the forward tables and negate
// each twiddle's imaginary part, which is exact.
//
// Usage (normally via go:generate in internal/fft/codelet):
//
//	genkernel -out internal/fft/codelet [-sizes 8,16,...,8192]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genkernel: ")
	out := flag.String("out", "internal/fft/codelet", "output directory (the codelet package)")
	sizesFlag := flag.String("sizes", "8,16,32,64,128,256,512,1024,2048,4096,8192", "comma-separated power-of-two kernel sizes, each >= 8")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range sizes {
		for _, ct := range []ctype{c64, c128} {
			name := fmt.Sprintf("z_dft%04d_%s.go", n, ct.tag)
			writeFile(filepath.Join(*out, name), genSizeFile(n, ct))
		}
	}
	writeFile(filepath.Join(*out, "z_registry.go"), genRegistry(sizes))
}

// parseSizes validates the size list: powers of two, >= 8, ascending.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("invalid size %q: %v", f, err)
		}
		if n < 8 || n&(n-1) != 0 {
			return nil, fmt.Errorf("size %d is not a power of two >= 8", n)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	sort.Ints(sizes)
	for i := 1; i < len(sizes); i++ {
		if sizes[i] == sizes[i-1] {
			return nil, fmt.Errorf("duplicate size %d", sizes[i])
		}
	}
	return sizes, nil
}

// writeFile gofmt-formats src and writes it.
func writeFile(path string, src []byte) {
	formatted, err := format.Source(src)
	if err != nil {
		// Dump the unformatted source to ease debugging generator bugs.
		_ = os.WriteFile(path+".bad", src, 0o644)
		log.Fatalf("%s: generated source does not parse: %v", path, err)
	}
	if err := os.WriteFile(path, formatted, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path, "-", len(formatted), "bytes")
}

// ctype is an element type the kernels are emitted for.
type ctype struct {
	name string // Go type name
	tag  string // file/function suffix
	bits int    // mantissa rounding target for constants (32 or 64)
}

var (
	c64  = ctype{name: "complex64", tag: "c64", bits: 32}
	c128 = ctype{name: "complex128", tag: "c128", bits: 64}
)

// passRadices decomposes a power-of-two n >= 8 into Stockham pass
// radices with the fft.Radices greedy rule: radix 8 while possible,
// then a final 4 or 2.
func passRadices(n int) []int {
	e := 0
	for v := n; v > 1; v >>= 1 {
		e++
	}
	var rs []int
	for rem := e; rem > 0; {
		switch {
		case rem >= 3:
			rs = append(rs, 8)
			rem -= 3
		case rem == 2:
			rs = append(rs, 4)
			rem -= 2
		default:
			rs = append(rs, 2)
			rem--
		}
	}
	return rs
}

// twiddledLengths returns the sub-transform lengths l of the passes that
// multiply by twiddles, over every size: the radix-8 passes with more
// than one butterfly per sub-transform (l >= 16).
func twiddledLengths(sizes []int) []int {
	seen := map[int]bool{}
	var ls []int
	for _, n := range sizes {
		for l := n; l >= 16; l /= 8 {
			if !seen[l] {
				seen[l] = true
				ls = append(ls, l)
			}
		}
	}
	sort.Ints(ls)
	return ls
}

// tableName is the twiddle table of pass length l for element type ct.
func tableName(l int, ct ctype) string {
	return fmt.Sprintf("tw%dl%d", 2*ct.bits, l)
}

// gen accumulates generated source.
type gen struct {
	buf bytes.Buffer
}

func (g *gen) pf(format string, args ...any) {
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

func header(g *gen) {
	g.pf("// Code generated by cmd/genkernel. DO NOT EDIT.")
	g.pf("")
	g.pf("package codelet")
	g.pf("")
}

// genSizeFile emits the forward and inverse kernels for one size and
// element type.
func genSizeFile(n int, ct ctype) []byte {
	g := &gen{}
	header(g)
	g.pf("// %d-point kernels (%s), pass radices %v.", n, ct.name, passRadices(n))
	genKernel(g, fmt.Sprintf("fwd%d%s", n, ct.tag), n, -1, ct)
	genKernel(g, fmt.Sprintf("inv%d%s", n, ct.tag), n, +1, ct)
	return g.buf.Bytes()
}

// pass is one Stockham pass of a kernel: radix r over sub-transforms of
// length l at stride s (l·s == n), reading src and writing dst.
type pass struct {
	name     string
	r, l, s  int
	src, dst string
}

// genKernel emits one kernel, the in-place DFT of x (length n, natural
// order in and out) using s as ping-pong scratch, as a call per pass,
// followed by the pass functions. With an odd pass count the final pass
// (sub-transform length == radix, so reads and writes cover the same
// indices) runs in place, keeping the result in x either way.
func genKernel(g *gen, name string, n, dir int, ct ctype) {
	word := "forward"
	if dir > 0 {
		word = "inverse"
	}
	rs := passRadices(n)
	var passes []pass
	src, dst := "x", "s"
	stride, l := 1, n
	for i, r := range rs {
		if i == len(rs)-1 && len(rs)%2 == 1 {
			// Odd pass count: the final l==r pass runs in place on x.
			if src != "x" || l != r {
				log.Fatalf("%s: in-place final pass needs src=x and l==r, got src=%s l=%d r=%d", name, src, l, r)
			}
			dst = src
		}
		passes = append(passes, pass{name: fmt.Sprintf("%sp%d", name, i), r: r, l: l, s: stride, src: src, dst: dst})
		src, dst = dst, src
		stride *= r
		l /= r
	}
	if src != "x" {
		log.Fatalf("%s: result ended in scratch", name)
	}

	arr := fmt.Sprintf("*[%d]%s", n, ct.name)
	g.pf("")
	g.pf("// %s computes the unnormalized %s %d-point DFT of x in place;", name, word, n)
	g.pf("// s is scratch. Both must have at least %d elements.", n)
	g.pf("func %s(x, s []%s) {", name, ct.name)
	if len(rs) == 1 {
		g.pf("%s((%s)(x))", passes[0].name, arr)
	} else {
		g.pf("xa, sa := (%s)(x), (%s)(s)", arr, arr)
		for _, p := range passes {
			if p.src == p.dst {
				g.pf("%s(%sa)", p.name, p.src)
			} else {
				g.pf("%s(%sa, %sa)", p.name, p.dst, p.src)
			}
		}
	}
	g.pf("}")
	for _, p := range passes {
		emitPass(g, p, n, dir, ct)
	}
}

// emitPass emits one pass function. The input of butterfly (j, d) is
// leg k at d + s·j + k·n/r, its output m at d + r·s·j + s·m. The j = 0
// butterflies (every twiddle 1) are peeled ahead of the j loop, which
// points at the twiddle row of j once for the whole d loop.
func emitPass(g *gen, p pass, n, dir int, ct ctype) {
	arr := fmt.Sprintf("*[%d]%s", n, ct.name)
	lr := p.l / p.r
	if p.r != 8 && lr != 1 {
		log.Fatalf("%s: radix-%d pass at l=%d has twiddles; only radix-8 passes do", p.name, p.r, p.l)
	}
	inPlace := ""
	if p.src == p.dst {
		inPlace = " (in place)"
	}
	g.pf("")
	g.pf("// %s is the radix-%d pass at l=%d, stride %d%s.", p.name, p.r, p.l, p.s, inPlace)
	src, dst := "src", "dst"
	if p.src == p.dst {
		src, dst = "x", "x"
		g.pf("func %s(x %s) {", p.name, arr)
	} else {
		g.pf("func %s(dst, src %s) {", p.name, arr)
	}
	// idx renders d + c·j + k, dropping zero and absent terms; j < 0
	// stands for the loop variable j, else j is folded into k.
	idx := func(c, k, j int) string {
		var terms []string
		if p.s > 1 {
			terms = append(terms, "d")
		}
		switch {
		case j >= 0:
			k += c * j
		case c == 1:
			terms = append(terms, "j")
		default:
			terms = append(terms, fmt.Sprintf("%d*j", c))
		}
		if k != 0 || len(terms) == 0 {
			terms = append(terms, strconv.Itoa(k))
		}
		return strings.Join(terms, "+")
	}
	// butterflies emits the butterflies of one j: the d loop, or with
	// s == 1 the one butterfly, in a block of its own when scoped.
	butterflies := func(j int, twiddled, scoped bool) {
		in := func(k int) string { return idx(p.s, k*n/p.r, j) }
		out := func(m int) string { return idx(p.r*p.s, p.s*m, j) }
		open := p.s > 1 || scoped
		if p.s > 1 {
			g.pf("for d := 0; d < %d; d++ {", p.s)
		} else if open {
			g.pf("{")
		}
		switch p.r {
		case 2:
			emitRadix2(g, src, dst, in, out)
		case 4:
			emitRadix4(g, src, dst, in, out, dir)
		case 8:
			emitRadix8(g, src, dst, in, out, dir, twiddled, ct)
		default:
			log.Fatalf("unsupported radix %d", p.r)
		}
		if open {
			g.pf("}")
		}
	}
	butterflies(0, false, lr > 1)
	switch {
	case lr == 2:
		g.pf("{")
		emitTwiddleRow(g, "1", p.l, ct)
		butterflies(1, true, false)
		g.pf("}")
	case lr > 2:
		g.pf("for j := 1; j < %d; j++ {", lr)
		emitTwiddleRow(g, "j", p.l, ct)
		butterflies(-1, true, false)
		g.pf("}")
	}
	g.pf("}")
}

// emitTwiddleRow points w at the table row of j. The butterflies read
// each twiddle where they multiply by it rather than holding all seven
// in registers across the d loop, which would spill them.
func emitTwiddleRow(g *gen, j string, l int, ct ctype) {
	g.pf("w := &%s[%s]", tableName(l, ct), j)
}

// twiddleMul is v·ω_l^{dir·m·j}: mul by the table entry as stored for
// the forward direction, mulConj by its conjugate for the inverse
// (twiddle.go).
func twiddleMul(v string, m, dir int, ct ctype) string {
	fn := "mul"
	if dir > 0 {
		fn = "mulConj"
	}
	return fmt.Sprintf("%s%d(%s, w[%d])", fn, 2*ct.bits, v, m-1)
}

func emitRadix2(g *gen, src, dst string, in, out func(int) string) {
	g.pf("a := %s[%s]", src, in(0))
	g.pf("b := %s[%s]", src, in(1))
	g.pf("%s[%s] = a + b", dst, out(0))
	g.pf("%s[%s] = a - b", dst, out(1))
}

func emitRadix4(g *gen, src, dst string, in, out func(int) string, dir int) {
	for k := 0; k < 4; k++ {
		g.pf("t%d := %s[%s]", k, src, in(k))
	}
	g.pf("a := t0 + t2")
	g.pf("b := t0 - t2")
	g.pf("c := t1 + t3")
	g.pf("u := t1 - t3")
	g.pf("e := %s", mulIExpr("u", dir))
	g.pf("%s[%s] = a + c", dst, out(0))
	g.pf("%s[%s] = b + e", dst, out(1))
	g.pf("%s[%s] = a - c", dst, out(2))
	g.pf("%s[%s] = b - e", dst, out(3))
}

// emitRadix8 emits the radix-8 butterfly; twiddled multiplies outputs
// 1..7 by the twiddles of row w.
func emitRadix8(g *gen, src, dst string, in, out func(int) string, dir int, twiddled bool, ct ctype) {
	h := math.Sqrt2 / 2
	w8 := fmtComplex(h, float64(dir)*h, ct)   // ω_8^{dir}
	w83 := fmtComplex(-h, float64(dir)*h, ct) // i·dir · ω_8^{dir} = ω_8^{3·dir}
	for k := 0; k < 8; k++ {
		g.pf("t%d := %s[%s]", k, src, in(k))
	}
	// E = DFT4(t0,t2,t4,t6), O = DFT4(t1,t3,t5,t7), as in the generic pass.
	g.pf("a0 := t0 + t4")
	g.pf("b0 := t0 - t4")
	g.pf("c0 := t2 + t6")
	g.pf("u0 := t2 - t6")
	g.pf("p0 := %s", mulIExpr("u0", dir))
	g.pf("e0 := a0 + c0")
	g.pf("e1 := b0 + p0")
	g.pf("e2 := a0 - c0")
	g.pf("e3 := b0 - p0")
	g.pf("a1 := t1 + t5")
	g.pf("b1 := t1 - t5")
	g.pf("c1 := t3 + t7")
	g.pf("u1 := t3 - t7")
	g.pf("p1 := %s", mulIExpr("u1", dir))
	g.pf("o0 := a1 + c1")
	g.pf("o1 := (b1 + p1) * %s", w8)
	g.pf("q := a1 - c1")
	g.pf("o2 := %s", mulIExpr("q", dir))
	g.pf("o3 := (b1 - p1) * %s", w83)
	g.pf("%s[%s] = e0 + o0", dst, out(0))
	for m := 1; m < 8; m++ {
		op := "+"
		if m >= 4 {
			op = "-"
		}
		y := fmt.Sprintf("e%d %s o%d", m%4, op, m%4)
		if twiddled {
			g.pf("%s[%s] = %s", dst, out(m), twiddleMul(y, m, dir, ct))
		} else {
			g.pf("%s[%s] = %s", dst, out(m), y)
		}
	}
}

// mulIExpr returns the expression for v·(dir·i): the strength-reduced
// multiplication by ±i.
func mulIExpr(v string, dir int) string {
	if dir < 0 { // ·(-i): (re+im·i)(-i) = im - re·i
		return fmt.Sprintf("complex(imag(%s), -real(%s))", v, v)
	}
	return fmt.Sprintf("complex(-imag(%s), real(%s))", v, v)
}

// fmtComplex renders a complex constant rounded to the element type.
func fmtComplex(re, im float64, ct ctype) string {
	return fmt.Sprintf("complex(%s, %s)", fmtFloat(re, ct), fmtFloat(im, ct))
}

func fmtFloat(v float64, ct ctype) string {
	if ct.bits == 32 {
		return strconv.FormatFloat(float64(float32(v)), 'g', -1, 32)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// genRegistry emits the coverage helpers, the twiddle table storage and
// the lookup switches behind Kernel64/Kernel128 (twiddle.go).
func genRegistry(sizes []int) []byte {
	g := &gen{}
	header(g)
	g.pf("// Registry of generated kernels and their twiddle tables.")
	g.pf("")
	g.pf("// MinN and MaxN bound the covered kernel sizes.")
	g.pf("const (")
	g.pf("MinN = %d", sizes[0])
	g.pf("MaxN = %d", sizes[len(sizes)-1])
	g.pf(")")
	g.pf("")
	g.pf("// Covered reports whether a generated kernel exists for n.")
	g.pf("func Covered(n int) bool {")
	g.pf("switch n {")
	g.pf("case %s:", joinInts(sizes))
	g.pf("return true")
	g.pf("}")
	g.pf("return false")
	g.pf("}")
	g.pf("")
	g.pf("// Sizes returns the covered sizes in ascending order.")
	g.pf("func Sizes() []int {")
	g.pf("return []int{%s}", joinInts(sizes))
	g.pf("}")
	ls := twiddledLengths(sizes)
	for _, ct := range []ctype{c64, c128} {
		bits := 2 * ct.bits
		g.pf("")
		g.pf("// The %s twiddle tables, one per radix-8 pass length l, filled", ct.name)
		g.pf("// on first use (twiddle.go): tw%dl<l>[j][m-1] = ω_l^{-m·j} rounded", bits)
		g.pf("// to %s.", ct.name)
		g.pf("var (")
		for _, l := range ls {
			g.pf("%s [%d][7]complex128", tableName(l, ct), l/8)
		}
		g.pf(")")
		g.pf("")
		g.pf("// table%d returns the %s twiddle table of pass length l.", bits, ct.name)
		g.pf("func table%d(l int) [][7]complex128 {", bits)
		g.pf("switch l {")
		for _, l := range ls {
			g.pf("case %d:", l)
			g.pf("return %s[:]", tableName(l, ct))
		}
		g.pf("}")
		g.pf("return nil")
		g.pf("}")
		g.pf("")
		g.pf("// kernel%d returns the %s kernel for n, or nil if n is uncovered.", bits, ct.name)
		g.pf("func kernel%d(n int, inverse bool) func(x, s []%s) {", bits, ct.name)
		g.pf("switch n {")
		for _, n := range sizes {
			g.pf("case %d:", n)
			g.pf("if inverse {")
			g.pf("return inv%d%s", n, ct.tag)
			g.pf("}")
			g.pf("return fwd%d%s", n, ct.tag)
		}
		g.pf("}")
		g.pf("return nil")
		g.pf("}")
	}
	return g.buf.Bytes()
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ", ")
}
