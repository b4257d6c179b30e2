package xmt

// Sharded execution of the XMT machine on sim.ParallelEngine: one shard
// per cluster. Everything a shard touches during a window is
// cluster-local — its ports and TCU states, its counters and trace
// recorder. Everything behind the NoC — the network's switch state and
// the memory system's caches and DRAM channels — is coordinator state,
// touched only between windows, in deterministic barrier merge order.
//
// Interactions that cross the real machine's NoC or prefix-sum unit
// become boundary messages, one per *group*, not one per request:
//
//	msgMemGroup   a whole load group or store group leaving a cluster
//	              LSU; the per-request payload (address, issue cycle)
//	              rides in the sending shard's request buffer, so the
//	              message itself is just (offset, count)
//	msgMemRetry   re-issue of one request whose NoC retransmit protocol
//	              gave up (fault injection only)
//	msgThreadDone TCU asking the prefix-sum unit for its next thread id
//
// The coordinator (the engine's barrier function) consumes each group
// inline: it walks the requests in issue order, traverses the NoC,
// performs the memory access and computes the reply arrival, then
// schedules a single resume event on the requesting shard. A request
// may be a same-line run of words (see memReq). An earlier
// design bounced every request through module-owner shards and every
// reply through its own message, which tripled wall-clock purely on
// message transport (1.86M messages for a run with 0.9M accesses). The
// memory-system model work is serialized at the coordinator, and it
// dominates the run, which is why the engine advances the shards inline
// rather than on goroutines of their own (DESIGN.md §7).
//
// The lookahead window is min(NoC one-way latency, PSLatency), so every
// cross-shard effect lands at or after the barrier that delivers it —
// the conservative-PDES safety condition. Because the window sequence,
// per-shard event order and barrier merge order are all deterministic,
// a run's cycle counts, counters and trace streams are bit-identical
// from run to run, which the pinned table test asserts.

import (
	"fmt"

	"xmtfft/internal/config"
	"xmtfft/internal/mem"
	"xmtfft/internal/sim"
	"xmtfft/internal/stats"
	"xmtfft/internal/trace"
)

// Boundary message kinds (sim.Message.Kind).
const (
	// msgMemGroup: A = offset into the sending shard's request buffer,
	// B = request count, C = segment start cycle<<1 | write bit,
	// D = TCU id. A load group parks its thread until the coordinator
	// schedules the resume; a store group does not.
	msgMemGroup uint8 = iota
	// msgMemRetry: A = offset of the single re-issued request in the
	// sending shard's request buffer, B = write bit, D = TCU id.
	msgMemRetry
	// msgThreadDone: A = completion cycle, D = TCU id. (Completion may be
	// later than Message.Time when trailing ALU ops ran inline.)
	msgThreadDone
)

// Shard event opcodes.
const (
	// sopStart: a = local TCU index, b = thread id.
	sopStart uint8 = iota
	// sopResume: a = local TCU index, b = op index to resume at.
	sopResume
	// sopRetransmit: a = index into Machine.retries. Fires on the
	// source shard after the retransmit protocol gave up on a request;
	// re-emits the request with the event's cycle as the new issue time,
	// keeping the event loop turning (so a pathological loss rate becomes
	// a watchdog-detectable livelock, not a spin).
	sopRetransmit
)

// memReq is one memory request in a shard's request buffer: the payload
// a msgMemGroup/msgMemRetry message refers to by offset. Requests are
// appended by shard events during a window and consumed by the
// coordinator at the barrier ending that same window, which then resets
// every buffer — the engine's window/barrier alternation is the only
// synchronization needed (the same contract retries uses, reversed).
//
// A request is a same-line run: the word at addr, issued at issue, and
// follow more words of its cache line issued on the follow cycles after
// it. Followers exist only when the machine forms runs (Machine.runs).
type memReq struct {
	addr   uint64
	issue  uint64
	follow uint64
}

// shardTCU is one TCU's execution state on its owning shard.
type shardTCU struct {
	id    int // global TCU id
	local int // index within the owning shard (id % TCUsPerCluster)
	tid   int
	buf   []Op
	// Load-group wait state: the thread parks after emitting its load
	// group and resumes at op index i when the coordinator has served
	// every request. waiting counts requests stuck in the retransmit
	// retry path (always zero without NoC fault injection).
	i        int
	segStart uint64
	waiting  int
	maxRet   uint64
}

// machineShard is one cluster; it implements sim.ShardHandler. Fields
// are touched only by the shard's own events during windows and by the
// coordinator between windows.
type machineShard struct {
	m  *Machine
	id int // cluster index == shard index

	fpu, lsu sim.Port
	tcus     []shardTCU
	reqs     []memReq // request payloads for this window's groups

	counters stats.Counters
	lastDone uint64          // thread and store completions on this shard
	rec      *trace.Recorder // per-spawn recorder; nil when not tracing
}

// retryRec is one escalated memory request: the payload its
// sopRetransmit event re-issues with a fresh issue cycle.
type retryRec struct {
	addr  uint64
	tcu   uint64
	write bool
}

// clusterPartition is the machine's sim.Partition: one shard per
// cluster, advancing in windows of the machine's lookahead.
type clusterPartition struct {
	shards int
	window uint64
}

// Shards implements sim.Partition.
func (p clusterPartition) Shards() int { return p.shards }

// Lookahead implements sim.Partition.
func (p clusterPartition) Lookahead() uint64 { return p.window }

// tcuOf returns the shard and local index of a global TCU id.
func (m *Machine) tcuOf(tcu int) (*machineShard, int) {
	return m.shards[m.tcuShard[tcu]], int(m.tcuLocal[tcu])
}

// reduceCounters rebuilds the machine's shard-summed counters. The
// shard counters are cumulative over the machine's lifetime, so this is
// a pure deterministic reduction, valid whenever the shards are parked.
// (Cache hits and misses live in the requesting cluster's shard
// counters; the coordinator credits them while serving groups.)
func (m *Machine) reduceCounters() {
	c := &m.Counters
	c.FPOps, c.ALUOps, c.Loads, c.Stores, c.Threads = 0, 0, 0, 0, 0
	c.CacheHits, c.CacheMisses = 0, 0
	c.PSOps = m.psOps
	for _, sh := range m.shards {
		c.FPOps += sh.counters.FPOps
		c.ALUOps += sh.counters.ALUOps
		c.Loads += sh.counters.Loads
		c.Stores += sh.counters.Stores
		c.Threads += sh.counters.Threads
		c.PSOps += sh.counters.PSOps
		c.CacheHits += sh.counters.CacheHits
		c.CacheMisses += sh.counters.CacheMisses
	}
}

// onBarrier is the coordinator: it receives every window's messages in
// deterministic (time, shard, send order) order and serves them inline.
// It is the only place the shared network and memory objects are
// touched, so their internal state (hybrid switch ports, cache sets,
// DRAM channel timing, packet counters) needs no locking.
func (m *Machine) onBarrier(msgs []sim.Message) {
	for _, msg := range msgs {
		switch msg.Kind {
		case msgMemGroup:
			sh := m.shards[msg.Src]
			recs := sh.reqs[msg.A : msg.A+msg.B]
			if msg.C&1 == 1 {
				m.storeGroup(sh, recs, int(msg.D))
			} else {
				m.loadGroup(sh, recs, msg.C>>1, int(msg.D))
			}
		case msgMemRetry:
			sh := m.shards[msg.Src]
			m.memRetry(sh, sh.reqs[msg.A], msg.B == 1, int(msg.D))
		case msgThreadDone:
			// The prefix-sum unit combines concurrent requests, so every
			// retiring TCU gets the next id in deterministic merge order
			// with constant latency — the no-busy-wait allocation scheme.
			if m.wd != nil {
				m.wd.Progress(msg.A)
			}
			if m.nextTh < m.totalTh {
				tid := m.nextTh
				m.nextTh++
				m.psOps++
				sh, local := m.tcuOf(int(msg.D))
				m.eng.Shard(sh.id).At(msg.A+PSLatency, sopStart, uint64(local), uint64(tid))
			} else {
				m.outstanding--
			}
		default:
			panic(fmt.Sprintf("xmt: unknown boundary message kind %d", msg.Kind))
		}
	}
	// Every request appended during the finished window has now been
	// consumed (a request is always paired with a message in the same
	// event, and the barrier receives all of a window's messages), so
	// the buffers reset for the next window.
	for _, sh := range m.shards {
		sh.reqs = sh.reqs[:0]
	}
}

// serveRequest performs the coordinator side of one memory request —
// NoC traversal, module access, counters, tracing — and hashes its
// address once, for both. The run's followers meet every port of the
// line's route exactly as the word before them left it, so the closed
// forms serve them, noc.Network.RepeatN and mem.System.RepeatN, which
// give every simulated quantity the general path would. res.Done is the
// run's completion: the later of the first word's, which may have
// missed, and the last follower's. ok=false means the retransmit
// protocol gave up; the request has been queued for an event-level
// retry on the source shard and res is meaningless.
func (m *Machine) serveRequest(sh *machineShard, r memReq, write bool, tcu int) (mem.AccessResult, bool) {
	dst := mem.HashAddress(r.addr, m.cfg.MemModules)
	arrive, ok := m.traverse(r.issue, sh.id, dst)
	if !ok {
		// Give-up: schedule the event-level retry on the source shard,
		// which re-issues the request with a fresh issue cycle.
		at := max(arrive, m.eng.Now())
		m.eng.Shard(sh.id).At(at, sopRetransmit, uint64(len(m.retries)), 0)
		m.retries = append(m.retries, retryRec{addr: r.addr, tcu: uint64(tcu), write: write})
		return mem.AccessResult{}, false
	}
	res := m.memory.Access(arrive, dst, r.addr, write)
	if res.Hit {
		sh.counters.CacheHits++
	} else {
		sh.counters.CacheMisses++
	}
	if m.coordRec != nil {
		m.coordRec.NoC(r.issue, arrive, sh.id, res.Module)
		m.coordRec.MemAccess(arrive, res.Done, tcu, res.Module, r.addr, write, res.Hit)
	}
	recordMemFault(m.coordRec, res.Done, res.Fault, res.Module, r.addr)
	if r.follow > 0 {
		m.network.RepeatN(r.follow)
		last := m.memory.RepeatN(r.follow, write)
		sh.counters.CacheHits += r.follow
		res.Done = max(res.Done, last.Done)
	}
	return res, true
}

// loadGroup serves a parked thread's load group: every request is
// traversed and accessed in issue order, and the thread resumes when
// the last reply is in (immediately computable unless a request
// escalated into the retry path). Replies are contention-free, so the
// last one arrives Latency() after the last access completes.
func (m *Machine) loadGroup(sh *machineShard, recs []memReq, segStart uint64, tcu int) {
	tc := &sh.tcus[m.tcuLocal[tcu]]
	tc.segStart = segStart
	done := uint64(0)
	pending := 0
	var replies uint64
	for _, r := range recs {
		res, ok := m.serveRequest(sh, r, false, tcu)
		if !ok {
			pending++
			continue
		}
		done = max(done, res.Done)
		replies += 1 + r.follow
	}
	m.network.AddReplies(replies)
	// With every request escalated, done+Latency is below any retry's
	// reply, so memRetry's max still yields the last reply.
	tc.maxRet = done + m.network.Latency()
	tc.waiting = pending
	if pending == 0 {
		m.finishLoadGroup(sh, tc)
	}
}

// finishLoadGroup records the load segment and schedules the parked
// thread's resume at the last reply arrival.
func (m *Machine) finishLoadGroup(sh *machineShard, tc *shardTCU) {
	if sh.rec != nil {
		sh.rec.Segment(tc.segStart, tc.maxRet, tc.id, trace.SegLoad)
	}
	if m.wd != nil {
		m.wd.Progress(tc.maxRet)
	}
	m.eng.Shard(sh.id).At(tc.maxRet, sopResume, uint64(tc.local), uint64(tc.i))
}

// storeGroup serves a store group; the issuing thread already continued
// (stores do not block), so only the join's completion bound advances.
func (m *Machine) storeGroup(sh *machineShard, recs []memReq, tcu int) {
	for _, r := range recs {
		res, ok := m.serveRequest(sh, r, true, tcu)
		if !ok {
			continue
		}
		sh.lastDone = max(sh.lastDone, res.Done) // join waits for store completion
	}
}

// memRetry serves a single re-issued request from the retransmit path.
func (m *Machine) memRetry(sh *machineShard, r memReq, write bool, tcu int) {
	res, ok := m.serveRequest(sh, r, write, tcu)
	if !ok {
		return // escalated again; a fresh retry event is scheduled
	}
	if write {
		sh.lastDone = max(sh.lastDone, res.Done)
		return
	}
	tc := &sh.tcus[m.tcuLocal[tcu]]
	m.network.AddReplies(1)
	tc.maxRet = max(tc.maxRet, res.Done+m.network.Latency())
	tc.waiting--
	if tc.waiting == 0 {
		m.finishLoadGroup(sh, tc)
	}
}

// Event implements sim.ShardHandler.
func (sh *machineShard) Event(s *sim.Shard, t uint64, op uint8, a, b uint64) {
	switch op {
	case sopStart:
		sh.runThread(s, &sh.tcus[a], int(b), t)
	case sopResume:
		sh.exec(s, &sh.tcus[a], int(b), t)
	case sopRetransmit:
		r := sh.m.retries[a]
		off := len(sh.reqs)
		sh.reqs = append(sh.reqs, memReq{addr: r.addr, issue: t})
		var wbit uint64
		if r.write {
			wbit = 1
		}
		s.Send(msgMemRetry, uint64(off), wbit, 0, r.tcu)
	default:
		panic(fmt.Sprintf("xmt: unknown shard event op %d", op))
	}
}

// runThread generates thread tid's ops and begins executing its first
// segment.
func (sh *machineShard) runThread(s *sim.Shard, tc *shardTCU, tid int, now uint64) {
	sh.counters.Threads++
	tc.tid = tid
	if sh.rec != nil {
		sh.rec.ThreadStart(now, tc.id, sh.id, tid)
	}
	tc.buf = sh.m.prog.Thread(tid, tc.buf[:0])
	sh.exec(s, tc, 0, now+ThreadStartOverhead)
}

// exec executes the op stream from index i with the thread ready at
// cycle now. Each segment (a run of related ops) computes its completion
// on the cluster's ports and schedules the continuation, so concurrent
// TCUs interleave correctly; a load or store group leaves the cluster as
// one boundary message for the coordinator.
func (sh *machineShard) exec(s *sim.Shard, tc *shardTCU, i int, now uint64) {
	local := uint64(tc.local)
	for {
		if i >= len(tc.buf) {
			sh.threadDone(s, tc, now)
			return
		}
		op := tc.buf[i]
		switch op.Kind {
		case OpALU:
			sh.counters.ALUOps += uint64(op.N)
			now += uint64(op.N)
			i++
		case OpFLOP:
			sh.counters.FPOps += uint64(op.N)
			done := sh.fpu.GrantNLast(now, uint64(op.N)) + FPULatency
			if sh.rec != nil {
				sh.rec.Segment(now, done, tc.id, trace.SegFLOP)
			}
			i++
			s.At(done, sopResume, local, uint64(i))
			return
		case OpPS:
			sh.counters.PSOps++
			if sh.rec != nil {
				sh.rec.Segment(now, now+PSLatency, tc.id, trace.SegPS)
			}
			i++
			s.At(now+PSLatency, sopResume, local, uint64(i))
			return
		case OpLoad:
			// Emit the load group as one boundary message (payload in the
			// shard's request buffer) and park the thread; the coordinator
			// serves the group at the barrier and schedules the resume.
			// The LSU issue grants are cluster-local state, charged now.
			j := i
			off := len(sh.reqs)
			for j < len(tc.buf) && tc.buf[j].Kind == OpLoad {
				sh.request(off, tc.buf[j].Addr, sh.lsu.Grant(now))
				sh.counters.Loads++
				j++
			}
			tc.i = j
			s.Send(msgMemGroup, uint64(off), uint64(len(sh.reqs)-off), now<<1, uint64(tc.id))
			return
		case OpStore:
			// Issue the store group without blocking the thread.
			j := i
			start := now
			issue := now
			off := len(sh.reqs)
			for j < len(tc.buf) && tc.buf[j].Kind == OpStore {
				issue = sh.lsu.Grant(issue)
				sh.request(off, tc.buf[j].Addr, issue)
				sh.counters.Stores++
				j++
			}
			s.Send(msgMemGroup, uint64(off), uint64(len(sh.reqs)-off), 1, uint64(tc.id))
			now = issue + 1
			if sh.rec != nil {
				sh.rec.Segment(start, now, tc.id, trace.SegStore)
			}
			i = j
		default:
			panic(fmt.Sprintf("xmt: unknown op kind %d", op.Kind))
		}
	}
}

// request adds a word to the group whose requests start at reqs[off].
// When the machine forms runs, a word of the cache line of the group's
// last request, issued on the cycle after that run's last word, joins
// the run as a follower; otherwise it is a request of its own.
func (sh *machineShard) request(off int, addr, issue uint64) {
	if n := len(sh.reqs) - 1; n >= off && sh.m.runs {
		r := &sh.reqs[n]
		if issue == r.issue+r.follow+1 && addr/config.CacheLineBytes == r.addr/config.CacheLineBytes {
			r.follow++
			return
		}
	}
	sh.reqs = append(sh.reqs, memReq{addr: addr, issue: issue})
}

// threadDone retires the thread and asks the prefix-sum unit (via the
// coordinator) for the TCU's next thread id.
func (sh *machineShard) threadDone(s *sim.Shard, tc *shardTCU, now uint64) {
	if now > sh.lastDone {
		sh.lastDone = now
	}
	if sh.rec != nil {
		sh.rec.ThreadRetire(now, tc.id, tc.tid)
	}
	s.Send(msgThreadDone, now, 0, 0, uint64(tc.id))
}
