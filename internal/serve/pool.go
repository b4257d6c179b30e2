package serve

// Per-size worker pools with request coalescing. Every (size, dtype,
// direction, normalization) key owns one worker goroutine fed by a
// buffered channel, so a key's transforms run one at a time however
// many handlers submit them. The worker blocks for the first job, then
// gathers more of the same key — greedily, or for a short CoalesceWait
// window — up to MaxBatch, transforms each job's data in place on the
// shared cached 1D plan, the exact call a lone request makes (so
// coalesced outputs are bit-identical to serial execution), and
// updates the pass metrics once per batch.

import (
	"sync"
	"time"

	"xmtfft/internal/fft"
)

// poolKey identifies one coalescible stream of 1D work. The element
// type is carried by the poolSet's type parameter, not the key.
type poolKey struct {
	n    int
	dir  fft.Direction
	norm fft.Normalization
}

// job is one request's stay in a pool: data is transformed in place,
// batched reports the size of the pass it rode in, err any transform
// failure. done is closed when the job is complete.
type job[C fft.Complex] struct {
	data    []C
	batched int
	err     error
	done    chan struct{}
}

// poolSet manages the pools of one element type.
type poolSet[C fft.Complex] struct {
	srv *Server

	mu    sync.Mutex
	pools map[poolKey]*pool[C]
}

func newPoolSet[C fft.Complex](s *Server) *poolSet[C] {
	return &poolSet[C]{srv: s, pools: make(map[poolKey]*pool[C])}
}

// submit queues data on the key's pool (creating it on first use) and
// waits for the transform to complete. It returns the batch size the
// job executed in.
func (ps *poolSet[C]) submit(key poolKey, data []C) (batched int, err error) {
	ps.mu.Lock()
	p := ps.pools[key]
	if p == nil {
		p, err = newPool[C](ps.srv, key)
		if err != nil {
			ps.mu.Unlock()
			return 0, err
		}
		ps.pools[key] = p
		ps.srv.met.pools.Set(float64(ps.srv.poolCount.Add(1)))
	}
	ps.mu.Unlock()

	j := &job[C]{data: data, done: make(chan struct{})}
	p.ch <- j
	<-j.done
	return j.batched, j.err
}

// close stops every pool worker and waits for them to exit. The server
// only calls it after the last in-flight request drained, so the
// channels are empty.
func (ps *poolSet[C]) close() {
	ps.mu.Lock()
	pools := make([]*pool[C], 0, len(ps.pools))
	for _, p := range ps.pools {
		pools = append(pools, p)
	}
	ps.mu.Unlock()
	for _, p := range pools {
		close(p.quit)
	}
	for _, p := range pools {
		<-p.stopped
	}
}

// pool is one key's worker: the shared cached plan and the job queue.
type pool[C fft.Complex] struct {
	srv     *Server
	key     poolKey
	plan    *fft.Plan[C]
	ch      chan *job[C]
	quit    chan struct{}
	stopped chan struct{}
}

// newPool looks the key's plan up in the shared cache and starts the
// worker goroutine.
func newPool[C fft.Complex](s *Server, key poolKey) (*pool[C], error) {
	plan, err := fft.CachedPlan[C](key.n, fft.WithNorm(key.norm))
	if err != nil {
		return nil, err
	}
	p := &pool[C]{
		srv:  s,
		key:  key,
		plan: plan,
		// Capacity MaxInflight: admission control bounds the jobs that
		// can exist at once, so a send never blocks a handler forever.
		ch:      make(chan *job[C], s.cfg.MaxInflight),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go p.run()
	return p, nil
}

// run is the worker loop: wait for work, coalesce, execute.
func (p *pool[C]) run() {
	defer close(p.stopped)
	batch := make([]*job[C], 0, p.srv.cfg.MaxBatch)
	for {
		select {
		case j := <-p.ch:
			batch = p.gather(append(batch[:0], j))
			p.execute(batch)
		case <-p.quit:
			// Drain-then-exit: Shutdown closes quit only after handlers
			// drained, so this loop normally finds the channel empty.
			for {
				select {
				case j := <-p.ch:
					p.execute([]*job[C]{j})
				default:
					return
				}
			}
		}
	}
}

// gather grows batch up to MaxBatch: greedily from whatever is already
// queued, then — if a coalesce window is configured — by waiting it out
// for stragglers. The window prices latency against batching: it only
// delays requests that already have company forming, never an idle pool.
func (p *pool[C]) gather(batch []*job[C]) []*job[C] {
	max := p.srv.cfg.MaxBatch
	for len(batch) < max {
		select {
		case j := <-p.ch:
			batch = append(batch, j)
			continue
		default:
		}
		break
	}
	if wait := p.srv.cfg.CoalesceWait; wait > 0 && len(batch) < max {
		t := time.NewTimer(wait)
		defer t.Stop()
		for len(batch) < max {
			select {
			case j := <-p.ch:
				batch = append(batch, j)
			case <-t.C:
				return batch
			case <-p.quit:
				return batch
			}
		}
	}
	return batch
}

// execute transforms every job of the batch in place, records the
// batch as one plan pass, and completes the jobs.
func (p *pool[C]) execute(batch []*job[C]) {
	for _, j := range batch {
		j.err = p.plan.Transform(j.data, p.key.dir)
	}
	m := p.srv.met
	m.planPasses.Inc()
	m.codeletLeaves.Set(float64(fft.CodeletLeafCalls()))
	m.batchSize.Observe(float64(len(batch)))
	if len(batch) > 1 {
		m.coalesced.Add(uint64(len(batch)))
	}
	for _, j := range batch {
		j.batched = len(batch)
		close(j.done)
	}
}
