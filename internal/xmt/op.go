package xmt

// OpKind classifies a thread micro-operation. The micro-op stream is the
// abstraction boundary between workloads (e.g. the FFT kernels in
// internal/core) and the timing simulator: it preserves the instruction
// mix and the exact shared-memory access pattern of an XMTC program
// without requiring a full compiler.
type OpKind uint8

const (
	// OpFLOP is N dependent floating-point operations executed on the
	// cluster's shared FPUs.
	OpFLOP OpKind = iota
	// OpALU is N integer/address operations. XMT provisions one ALU per
	// TCU (32 per cluster), so ALU ops never contend across threads.
	OpALU
	// OpLoad is a word load from shared memory. Consecutive OpLoads in a
	// thread form a load group: all are issued back-to-back through the
	// cluster's LSU port (modeling XMT's prefetching support and the 32
	// floating-point registers available as targets), and the thread
	// continues when the last one returns.
	OpLoad
	// OpStore is a word store to shared memory. Consecutive OpStores
	// issue back-to-back and do not block the thread (TCUs have no write
	// cache to stall on); the spawn's join waits for their completion.
	OpStore
	// OpPS is a prefix-sum operation to a global register via the PS
	// unit: constant latency, combining (contention-free) throughput.
	OpPS
)

// Op is one micro-operation in a thread's stream.
type Op struct {
	Kind OpKind
	N    uint32 // repeat count for OpFLOP/OpALU (>=1 assumed)
	Addr uint64 // byte address for OpLoad/OpStore
}

// Convenience constructors keep kernel code readable.

// FLOP returns an Op performing n floating-point operations.
func FLOP(n int) Op { return Op{Kind: OpFLOP, N: uint32(n)} }

// ALU returns an Op performing n integer operations.
func ALU(n int) Op { return Op{Kind: OpALU, N: uint32(n)} }

// Load returns a word-load Op for the given byte address.
func Load(addr uint64) Op { return Op{Kind: OpLoad, Addr: addr} }

// Store returns a word-store Op for the given byte address.
func Store(addr uint64) Op { return Op{Kind: OpStore, Addr: addr} }

// PS returns a prefix-sum Op.
func PS() Op { return Op{Kind: OpPS, N: 1} }

// Program supplies the micro-op streams of a parallel section: one
// stream per virtual thread, analogous to the body of an XMTC
// spawn/join block.
type Program interface {
	// Thread appends thread id's ops to buf and returns the result. The
	// machine reuses buf across threads of one TCU, so implementations
	// must not retain it. Thread is called exactly once per thread, at
	// the simulated time the thread begins executing; implementations
	// may perform the thread's actual (functional) computation eagerly
	// here, since threads within a parallel section are independent by
	// the PRAM contract.
	//
	// With one simulation worker (New, the default) Thread runs on the
	// calling goroutine, one thread at a time, so it may touch shared
	// state and call ExtendSpawn. With more workers (NewParallel) it is
	// invoked from worker goroutines, concurrently for threads on
	// different clusters; implementations must then compute purely from
	// id, or touch only id-indexed disjoint data — which the PRAM
	// independence contract already requires of a correct XMT program.
	Thread(id int, buf []Op) []Op
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(id int, buf []Op) []Op

// Thread implements Program.
func (f ProgramFunc) Thread(id int, buf []Op) []Op { return f(id, buf) }
