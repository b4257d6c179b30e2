package sim

// Port models a hardware resource that can accept one grant per cycle
// (optionally W per cycle), e.g. a cluster's load/store port, a cache
// module's access port, or a DRAM channel command slot. Requests are
// granted in arrival order; a request arriving at cycle t is granted at
// the earliest free slot >= t. The zero value is a width-1 port.
//
// Port does not schedule events itself: callers ask for a grant time and
// schedule their own continuation. This keeps the event count per memory
// operation low (one event per hop instead of handshake pairs).
//
// Every method is O(1). The reference they are held to is n calls of
// the one-slot step (resource_test.go): take max(t, nextFree), count
// the slot in used, and move nextFree on by a cycle once used reaches
// the width. Seen from state (f, u) with u < w, the k-th of n slots
// lands at f + (u+k)/w, which gives all three methods one closed form;
// on a width-1 port used never leaves 0, so it is max and add.
type Port struct {
	// Width is the number of grants available per cycle; 0 means 1.
	Width uint64
	// nextFree is the earliest cycle with a free slot.
	nextFree uint64
	// used counts grants already issued at nextFree; always 0 on a
	// width-1 port.
	used uint64
	// Busy accumulates total granted slots, for utilization reporting.
	Busy uint64
}

// Grant reserves one slot at or after cycle t and returns the cycle at
// which the slot is granted.
func (p *Port) Grant(t uint64) uint64 {
	return p.reserve(t, 1)
}

// GrantNext reserves the port's next n >= 1 free slots and returns the
// cycle of the last: the grants of n requests that each arrive no later
// than their slot. On a width-1 port they are the n cycles after the
// latest grant, which is where n requests land that arrive on the n
// cycles after the latest grantee with nothing granted in between (the
// hops of a same-line run's followers).
func (p *Port) GrantNext(n uint64) uint64 {
	return p.GrantNLast(0, n)
}

// GrantN reserves the n earliest available slots at or after cycle t and
// returns the cycle of the first slot. On a width-1 port the slots are
// consecutive cycles, modeling a burst transfer holding a channel; on a
// wider port up to Width slots share each cycle.
func (p *Port) GrantN(t, n uint64) uint64 {
	if n == 0 {
		return t
	}
	return p.reserve(t, n)
}

// GrantNLast reserves the n earliest available slots at or after cycle t
// and returns the cycle of the last slot, the completion time of a
// throughput-limited n-operation segment (e.g. a thread's FLOPs on the
// cluster's shared FPUs).
func (p *Port) GrantNLast(t, n uint64) uint64 {
	if n == 0 {
		return t
	}
	p.reserve(t, n)
	// The last slot, f + (u+n-1)/w, is the cycle before nextFree unless
	// nextFree itself is partly used.
	if p.used > 0 {
		return p.nextFree
	}
	return p.nextFree - 1
}

// reserve claims n >= 1 slots at or after cycle t and returns the cycle
// of the first. From state (f, u) the slots run from f to f + (u+n-1)/w
// and leave the port at f + (u+n)/w with (u+n) mod w used. It returns
// only the first slot and takes the width-1 case first so that Grant
// stays small enough to inline: every simulated memory request grants
// several width-1 ports.
func (p *Port) reserve(t, n uint64) uint64 {
	p.Busy += n
	w := p.Width
	if w <= 1 {
		first := max(t, p.nextFree)
		p.nextFree = first + n
		return first
	}
	if t > p.nextFree {
		p.nextFree, p.used = t, 0
	}
	first := p.nextFree
	u := p.used + n
	p.nextFree += u / w
	p.used = u % w
	return first
}
