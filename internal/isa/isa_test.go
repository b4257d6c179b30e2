package isa

import (
	"strings"
	"testing"

	"xmtfft/internal/config"
	"xmtfft/internal/xmt"
)

func newVM(t *testing.T, src string, memBytes int) *VM {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	m, err := xmt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewVM(m, prog, memBytes)
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"unknown mnemonic":  "frobnicate r1, r2",
		"bad register":      "li r99, 4",
		"wrong operands":    "add r1, r2",
		"undefined label":   "j nowhere",
		"duplicate label":   "a: li r2, 1\na: halt",
		"bad immediate":     "li r2, zebra",
		"bad label char":    "9lbl: halt",
		"float as int reg":  "add r1, f2, r3",
		"global as int reg": "add g1, r2, r3",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled without error", name)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
start:
	li r2, 10
	addi r3, r2, -1
	add r4, r2, r3
	mul r5, r4, r2
	lw r6, r5, 8
	sw r6, r5, 12
	lwf f1, r5, 0
	fadd f2, f1, f1
	fneg f3, f2
	swf f3, r5, 4
	cvtif f4, r2
	cvtfi r7, f4
	beq r2, r3, start
	ps r2, g0
	gset g1, r2
	gget r8, g1
	spawn r2, body
	halt
body:
	join
`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := p1.Disassemble()
	p2, err := Assemble(dis)
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, dis)
	}
	if len(p1.Instrs) != len(p2.Instrs) {
		t.Fatalf("instruction counts differ: %d vs %d", len(p1.Instrs), len(p2.Instrs))
	}
	for i := range p1.Instrs {
		if p1.Instrs[i] != p2.Instrs[i] {
			t.Errorf("instr %d: %+v vs %+v", i, p1.Instrs[i], p2.Instrs[i])
		}
	}
}

func TestSerialArithmetic(t *testing.T) {
	vm := newVM(t, `
	li r2, 6
	li r3, 7
	mul r4, r2, r3      ; 42
	addi r5, r4, 58     ; 100
	div r6, r5, r2      ; 16
	rem r7, r5, r3      ; 2
	sub r8, r5, r4      ; 58
	slli r9, r2, 4      ; 96
	srli r10, r9, 2     ; 24
	xor r11, r2, r3     ; 1
	halt
`, 64)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{4: 42, 5: 100, 6: 16, 7: 2, 8: 58, 9: 96, 10: 24, 11: 1}
	for r, v := range want {
		if vm.IntRegs[r] != v {
			t.Errorf("r%d = %d, want %d", r, vm.IntRegs[r], v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	vm := newVM(t, `
	li r0, 99
	addi r2, r0, 5
	halt
`, 64)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.IntRegs[0] != 0 || vm.IntRegs[2] != 5 {
		t.Fatalf("r0=%d r2=%d", vm.IntRegs[0], vm.IntRegs[2])
	}
}

func TestSerialLoop(t *testing.T) {
	// Sum 1..10 with a branch loop.
	vm := newVM(t, `
	li r2, 0      ; sum
	li r3, 1      ; i
	li r4, 11
loop:
	add r2, r2, r3
	addi r3, r3, 1
	blt r3, r4, loop
	halt
`, 64)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.IntRegs[2] != 55 {
		t.Fatalf("sum = %d, want 55", vm.IntRegs[2])
	}
}

func TestSerialMemoryAndFloat(t *testing.T) {
	vm := newVM(t, `
	li r2, 16
	li r3, 3
	cvtif f1, r3
	fmul f2, f1, f1   ; 9.0
	swf f2, r2, 0
	lwf f3, r2, 0
	fadd f4, f3, f1   ; 12.0
	cvtfi r5, f4
	sw r5, r2, 4
	lw r6, r2, 4
	halt
`, 64)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.FPRegs[4] != 12 {
		t.Fatalf("f4 = %g, want 12", vm.FPRegs[4])
	}
	if vm.IntRegs[6] != 12 {
		t.Fatalf("r6 = %d, want 12", vm.IntRegs[6])
	}
	if vm.LoadFloat(16) != 9 {
		t.Fatalf("mem[16] = %g, want 9", vm.LoadFloat(16))
	}
}

// The canonical XMTC example: parallel vector add c = a + b.
func TestSpawnVectorAdd(t *testing.T) {
	const n = 300
	vm := newVM(t, `
	li r2, 300
	spawn r2, body
	halt
body:                 ; r1 = thread id
	slli r2, r1, 2    ; byte offset
	lw r3, r2, 0      ; a[i]   at 0
	lw r4, r2, 2048   ; b[i]   at 2048
	add r5, r3, r4
	sw r5, r2, 4096   ; c[i]   at 4096
	join
`, 8192)
	for i := 0; i < n; i++ {
		vm.StoreWord(i*4, int32(i))
		vm.StoreWord(2048+i*4, int32(10*i))
	}
	cycles, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := vm.LoadWord(4096 + i*4); got != int32(11*i) {
			t.Fatalf("c[%d] = %d, want %d", i, got, 11*i)
		}
	}
	if cycles == 0 {
		t.Fatal("no cycles consumed")
	}
	if vm.Machine.Counters.Threads != n {
		t.Fatalf("threads = %d, want %d", vm.Machine.Counters.Threads, n)
	}
}

// Array compaction with ps: copy the nonzero elements of a to b, in
// arbitrary order -- the textbook use of XMT's prefix-sum primitive.
func TestSpawnCompactionWithPS(t *testing.T) {
	const n = 256
	vm := newVM(t, `
	li r2, 256
	spawn r2, body
	gget r3, g0       ; number of nonzeros
	halt
body:
	slli r2, r1, 2
	lw r3, r2, 0      ; a[i] at 0
	beq r3, r0, done
	li r4, 1
	ps r4, g0         ; r4 = old count
	slli r5, r4, 2
	sw r3, r5, 4096   ; b[count] at 4096
done:
	join
`, 8192)
	want := 0
	for i := 0; i < n; i++ {
		v := int32(0)
		if i%3 == 0 {
			v = int32(i + 1)
			want++
		}
		vm.StoreWord(i*4, v)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if got := vm.IntRegs[3]; got != int64(want) {
		t.Fatalf("compacted count = %d, want %d", got, want)
	}
	// Every output slot must hold a distinct nonzero input value.
	seen := map[int32]bool{}
	for i := 0; i < want; i++ {
		v := vm.LoadWord(4096 + i*4)
		if v == 0 || seen[v] || (v-1)%3 != 0 {
			t.Fatalf("b[%d] = %d invalid", i, v)
		}
		seen[v] = true
	}
}

// Parallel sum via ps accumulation.
func TestSpawnParallelSumPS(t *testing.T) {
	vm := newVM(t, `
	li r2, 500
	spawn r2, body
	gget r3, g2
	halt
body:
	addi r4, r1, 1    ; i+1
	ps r4, g2
	join
`, 64)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.IntRegs[3] != 500*501/2 {
		t.Fatalf("sum = %d, want %d", vm.IntRegs[3], 500*501/2)
	}
	if vm.Machine.Counters.PSOps < 500 {
		t.Fatalf("ps ops = %d, want >= 500", vm.Machine.Counters.PSOps)
	}
}

func TestThreadErrorsPropagate(t *testing.T) {
	cases := map[string]string{
		"div by zero": `
	li r2, 4
	spawn r2, body
	halt
body:
	div r3, r2, r0
	join`,
		"out of bounds": `
	li r2, 1
	spawn r2, body
	halt
body:
	li r3, 100000
	lw r4, r3, 0
	join`,
		"serial-only op in thread": `
	li r2, 1
	spawn r2, body
	halt
body:
	gset g1, r2
	join`,
		"runaway thread": `
	li r2, 1
	spawn r2, body
	halt
body:
	j body`,
	}
	for name, src := range cases {
		vm := newVM(t, src, 1024)
		vm.MaxThreadInstrs = 10000
		if _, err := vm.Run(); err == nil {
			t.Errorf("%s: Run succeeded, want error", name)
		}
	}
}

func TestSerialErrors(t *testing.T) {
	for name, src := range map[string]string{
		"join in serial":   "join\nhalt",
		"negative spawn":   "li r2, -1\nspawn r2, b\nhalt\nb: join",
		"oob serial store": "li r2, 9999\nsw r2, r2, 0\nhalt",
	} {
		vm := newVM(t, src, 64)
		if _, err := vm.Run(); err == nil {
			t.Errorf("%s: Run succeeded, want error", name)
		}
	}
}

func TestTimingScalesWithThreads(t *testing.T) {
	run := func(n int) uint64 {
		vm := newVM(t, `
	li r2, `+itoa(n)+`
	spawn r2, body
	halt
body:
	slli r2, r1, 2
	lw r3, r2, 0
	addi r3, r3, 1
	sw r3, r2, 0
	join
`, 1<<20)
		cycles, err := vm.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	small, large := run(64), run(4096)
	if large <= small {
		t.Fatalf("64x more threads not slower: %d vs %d cycles", large, small)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestDisassembleUsesLabels(t *testing.T) {
	p, err := Assemble("start:\n j start\n halt")
	if err != nil {
		t.Fatal(err)
	}
	if dis := p.Disassemble(); !strings.Contains(dis, "j start") {
		t.Errorf("disassembly lost label: %q", dis)
	}
}

func TestSSpawnChain(t *testing.T) {
	// Thread 0 starts a chain of single-spawns; each child increments a
	// counter via ps and writes its id. The chain stops at id 20.
	vm := newVM(t, `
	li r2, 1
	spawn r2, body
	gget r3, g0
	halt
body:
	li r4, 1
	ps r4, g0         ; count threads
	slli r5, r1, 2
	sw r1, r5, 0      ; record own id
	li r6, 20
	bge r1, r6, done
	sspawn r7, body   ; child continues the chain
done:
	join
`, 4096)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if vm.IntRegs[3] != 21 {
		t.Fatalf("chain ran %d threads, want 21", vm.IntRegs[3])
	}
	for id := 0; id <= 20; id++ {
		if got := vm.LoadWord(id * 4); got != int32(id) {
			t.Fatalf("slot %d = %d, want %d", id, got, id)
		}
	}
}

// TestSSpawnChainOnBothConstructors runs the sspawn chain on xmt.New
// and on xmt.NewParallel(cfg, 1): the same inline-driver machine, so
// both must run all 21 threads in the same number of cycles.
func TestSSpawnChainOnBothConstructors(t *testing.T) {
	prog, err := Assemble(`
	li r2, 1
	spawn r2, body
	halt
body:
	slli r5, r1, 2
	sw r1, r5, 0
	li r6, 20
	bge r1, r6, done
	sspawn r7, body
done:
	join
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.FourK().Scaled(64)
	if err != nil {
		t.Fatal(err)
	}
	var cycles []uint64
	for _, build := range []func() (*xmt.Machine, error){
		func() (*xmt.Machine, error) { return xmt.New(cfg) },
		func() (*xmt.Machine, error) { return xmt.NewParallel(cfg, 1) },
	} {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		vm := NewVM(m, prog, 4096)
		c, err := vm.Run()
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id <= 20; id++ {
			if got := vm.LoadWord(id * 4); got != int32(id) {
				t.Fatalf("slot %d = %d, want %d", id, got, id)
			}
		}
		if m.Counters.Threads != 21 {
			t.Fatalf("ran %d threads, want 21", m.Counters.Threads)
		}
		cycles = append(cycles, c)
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("xmt.New ran %d cycles, NewParallel(cfg, 1) %d", cycles[0], cycles[1])
	}
}

func TestSSpawnChildEntryDiffers(t *testing.T) {
	// Parent body and child body are different labels; the parent
	// receives the child id.
	vm := newVM(t, `
	li r2, 2
	spawn r2, parent
	halt
parent:
	slli r3, r1, 2
	sspawn r4, child
	sw r4, r3, 0      ; record child id at parent slot
	join
child:
	slli r3, r1, 2
	li r5, 777
	sw r5, r3, 256    ; child marker
	join
`, 4096)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	// Children got ids 2 and 3 (in some order); both wrote markers.
	ids := map[int32]bool{vm.LoadWord(0): true, vm.LoadWord(4): true}
	if !ids[2] || !ids[3] {
		t.Fatalf("child ids = %v, want {2,3}", ids)
	}
	for _, id := range []int{2, 3} {
		if got := vm.LoadWord(256 + id*4); got != 777 {
			t.Fatalf("child %d marker = %d", id, got)
		}
	}
}

func TestSSpawnSerialModeRejected(t *testing.T) {
	vm := newVM(t, "sspawn r2, b\nhalt\nb: join", 64)
	if _, err := vm.Run(); err == nil {
		t.Fatal("sspawn in serial mode accepted")
	}
}

func TestSSpawnDisassembles(t *testing.T) {
	p, err := Assemble("a: sspawn r3, a\n join")
	if err != nil {
		t.Fatal(err)
	}
	if dis := p.Disassemble(); !strings.Contains(dis, "sspawn r3, a") {
		t.Errorf("disassembly: %q", dis)
	}
}

func TestSSpawnChainBounded(t *testing.T) {
	vm := newVM(t, `
	li r2, 1
	spawn r2, body
	halt
body:
	sspawn r3, body
	join
`, 64)
	vm.MaxThreads = 100
	if _, err := vm.Run(); err == nil {
		t.Fatal("unbounded sspawn chain did not error")
	}
	if vm.Machine.Counters.Threads > 200 {
		t.Fatalf("chain ran %d threads before stopping", vm.Machine.Counters.Threads)
	}
}

func TestProfileTracer(t *testing.T) {
	vm := newVM(t, `
	li r2, 10
	spawn r2, body
	halt
body:
	slli r3, r1, 2
	sw r1, r3, 0
	join
`, 1024)
	prof := NewProfile(vm.Prog)
	vm.Tracer = prof
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if prof.Spawns != 1 {
		t.Errorf("spawns = %d", prof.Spawns)
	}
	if len(prof.ThreadsSeen) != 10 {
		t.Errorf("threads seen = %d", len(prof.ThreadsSeen))
	}
	// Each of the 10 threads runs 3 instructions (slli, sw, join).
	if prof.Total() != 3+30 {
		t.Errorf("total dynamic instrs = %d, want 33", prof.Total())
	}
	// The hottest instruction is one of the thread body's.
	hot := prof.HotSpots(1)[0]
	if prof.ThreadCounts[hot] != 10 {
		t.Errorf("hottest instr count = %d, want 10", prof.ThreadCounts[hot])
	}
	out := prof.String()
	for _, want := range []string{"33 dynamic", "1 spawns", "10 distinct", "body:"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}
