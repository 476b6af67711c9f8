package dataserve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// TenantConfig describes one training job attaching to the service. The
// schedule fields (Shuffle, Seed, Batch, DropLast) carry the exact
// semantics of pipeline.Config, including the per-epoch shuffle-seed
// derivation — a tenant's batches are bit-identical to a private
// single-tenant loader configured the same way.
type TenantConfig struct {
	// Name identifies the tenant in metrics and ownership accounting;
	// required, unique among attached tenants.
	Name string
	// Dataset names the registered shared dataset to draw from. Required.
	Dataset string
	// Weight is the tenant's fair-queueing share: the workers serve up to
	// quantum*Weight (2*Weight) of its requests per round. Default 1.
	Weight int
	// Inflight is the admission budget: an epoch keeps this many samples
	// requested ahead of its consumer. Epoch queues the first Inflight, and
	// each sample Next consumes queues the one Inflight places later, so a
	// slow consumer backpressures only its own schedule. Default 8.
	Inflight int
	// Batch is the minibatch size. Default 1.
	Batch int
	// DropLast discards a trailing partial batch, as pipeline.Config does.
	DropLast bool
	// Shuffle enables the per-epoch seeded shuffle.
	Shuffle bool
	// Seed drives the shuffle derivation.
	Seed uint64
	// Breaker arms the tenant's circuit breaker (see BreakerConfig); the
	// zero value disables it.
	Breaker BreakerConfig
	// DeadlineLag is the admission deadline in dispatch-lag units: a
	// pending request whose lag exceeds it is shed (counted in Shed,
	// skipped by the iterator) instead of queueing unboundedly. 0 disables
	// shedding for this tenant.
	DeadlineLag int64
	// MaxBadSamples, when positive, lets an epoch survive up to that many
	// poisoned or terminally failing samples: the iterator skips them
	// (counted in Skips) instead of aborting on the first error. Breaker
	// rejections are never skipped — a tripped tenant's epoch ends.
	MaxBadSamples int
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Inflight <= 0 {
		c.Inflight = 8
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return c
}

// Tenant is one attached training job. Epoch starts a schedule, Detach
// severs the tenant (closing its live iterators) without disturbing the
// service's other tenants.
type Tenant struct {
	name string
	svc  *Service
	sd   *sharedDataset
	cfg  TenantConfig
	to   tenantObs

	// Everything below is guarded by svc.mu. pend[pendHead:] are the
	// queued requests, oldest first; live are the iterators neither drained
	// nor closed, which Detach closes and the watchdog inspects.
	pend     []request
	pendHead int
	detached bool
	brk      *breaker // nil when the breaker is disabled; set once at Attach
	live     []*Iterator
	spare    epochBufs // the last cleanly ended epoch's, for the next Epoch
}

// epochBufs is the memory an epoch's iterator runs on: its schedule, reorder
// ring and completions. An epoch whose schedule ran to its end has no
// request outstanding, so it hands them to its tenant and the next Epoch
// reuses them: back-to-back warm epochs then allocate only the Iterator and
// its abort channel.
type epochBufs struct {
	order       []int
	ring        []outcome
	completions chan outcome
}

// Attach registers a tenant with the service.
func (s *Service) Attach(cfg TenantConfig) (*Tenant, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("dataserve: tenant needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("dataserve: attach %q to closed service", cfg.Name)
	}
	if _, ok := s.tenants[cfg.Name]; ok {
		return nil, fmt.Errorf("dataserve: tenant %q already attached", cfg.Name)
	}
	sd, ok := s.datasets[cfg.Dataset]
	if !ok {
		return nil, fmt.Errorf("dataserve: tenant %q names unregistered dataset %q", cfg.Name, cfg.Dataset)
	}
	t := &Tenant{
		name: cfg.Name,
		svc:  s,
		sd:   sd,
		cfg:  cfg,
		to:   newTenantObs(s.cfg.Obs, cfg.Name),
	}
	if cfg.Breaker.Threshold > 0 {
		t.brk = newBreaker(cfg.Breaker)
	}
	s.tenants[cfg.Name] = t
	s.order = append(s.order, t)
	s.rebuildShedOrderLocked()
	s.ob.tenants.Set(float64(len(s.tenants)))
	return t, nil
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// pushLocked queues r behind the tenant's pending requests. When the array
// is full and dequeued slots sit at its front, the live requests slide down
// first, so a backlog that never drains still stays within twice its peak
// length. Caller holds svc.mu.
func (t *Tenant) pushLocked(r request) {
	if t.pendHead > 0 && len(t.pend) == cap(t.pend) {
		n := copy(t.pend, t.pend[t.pendHead:])
		clear(t.pend[n:])
		t.pend, t.pendHead = t.pend[:n], 0
	}
	t.pend = append(t.pend, r)
}

// popLocked dequeues the tenant's oldest pending request, which must exist.
// A drained queue keeps its backing array, reset to length 0, so a steady
// request stream reuses one array instead of allocating a fresh one every
// time the queue refills. Caller holds svc.mu.
func (t *Tenant) popLocked() request {
	r := t.pend[t.pendHead]
	t.pend[t.pendHead] = request{}
	t.pendHead++
	if t.pendHead == len(t.pend) {
		t.pend, t.pendHead = t.pend[:0], 0
	}
	return r
}

// Detach severs the tenant: its pending requests are dropped, every live
// iterator is closed, and the workers stop visiting it. In-progress
// flights it owns are service work and run to completion, so tenants
// waiting on them are unaffected. Idempotent.
func (t *Tenant) Detach() {
	s := t.svc
	s.mu.Lock()
	if t.detached {
		s.mu.Unlock()
		return
	}
	t.detached = true
	t.pend, t.pendHead = nil, 0
	delete(s.tenants, t.name)
	for i, o := range s.order {
		if o == t {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.rebuildShedOrderLocked()
	s.ob.tenants.Set(float64(len(s.tenants)))
	live := t.live
	t.live = nil
	s.mu.Unlock()
	for _, it := range live {
		it.Close()
	}
}

// retire drops it from the tenant's live iterators. An iterator whose
// schedule ended (Next took its last position) also hands its epochBufs to
// the tenant and forgets them; the caller then holds it.mu.
func (t *Tenant) retire(it *Iterator, ended bool) {
	t.svc.mu.Lock()
	if i := slices.Index(t.live, it); i >= 0 {
		t.live = slices.Delete(t.live, i, i+1)
	}
	if ended {
		t.spare = epochBufs{order: it.order, ring: it.ring, completions: it.completions}
		it.order, it.ring, it.completions = nil, nil, nil
	}
	t.svc.mu.Unlock()
}

// outcome is one served sample (or its terminal error) on its way back to
// the tenant's iterator.
type outcome struct {
	seq, index  int
	data, label *tensor.Tensor
	err         error
	shed        bool // dropped past its deadline: skip, don't fail
}

// Iterator yields one epoch of a tenant's schedule as pooled batches, in
// deterministic schedule order, mirroring pipeline.Iterator's contract:
// Next returns (nil, nil) at a clean end of epoch and a typed error on a
// terminal failure, and Close aborts early without leaking pooled tensors.
// An epoch runs on its consumer's goroutine: Next queues the requests and
// reorders the workers' completions itself.
type Iterator struct {
	t     *Tenant
	order []int // the epoch's schedule

	// completions carries the workers' outcomes in completion order. It
	// holds Inflight: at most Inflight schedule positions are outstanding,
	// so a worker's send never waits on the consumer.
	completions chan outcome
	abort       chan struct{} // closed by Close

	// mu guards the consumer's state against a concurrent Close; Next
	// holds it except while blocked on completions. ring is the reorder
	// buffer: seq's outcome waits in ring[seq%Inflight] (seq -1 marks a
	// free slot), which is free because at most Inflight schedule
	// positions are outstanding.
	mu     sync.Mutex
	ring   []outcome
	next   int  // schedule position Next delivers next
	closed bool // Close ran: the ring and completions are recycled
	done   bool // Next reached end of epoch
	skips  int  // bad samples skipped this epoch

	// lastDrain is the clock time, as float64 bits, of the consumer's last
	// receive from completions; the slow-consumer watchdog reads it.
	lastDrain atomic.Uint64
}

// noteDrain timestamps the consumer taking an outcome off completions,
// resetting the watchdog's undrained-backlog timer.
func (it *Iterator) noteDrain() {
	it.lastDrain.Store(math.Float64bits(it.t.svc.clock.Now()))
}

// stalledFor reports how long the consumer has been stalled at clock time
// now, or -1 when it is not. A consumer is stalled when outcomes wait in
// completions and nobody has received one since lastDrain: results are
// ready and nobody is taking them.
func (it *Iterator) stalledFor(now float64) float64 {
	if len(it.completions) > 0 {
		return now - math.Float64frombits(it.lastDrain.Load())
	}
	return -1
}

// Epoch starts iterating the tenant's schedule for the given epoch and
// queues its first Inflight requests, so prefetch starts here. Several
// iterators of one tenant may be live at once; each has its own Inflight
// budget, and Detach closes them all. Returns nil if the tenant is
// detached.
func (t *Tenant) Epoch(epoch int) *Iterator {
	s := t.svc
	s.mu.Lock()
	bufs := t.spare
	t.spare = epochBufs{}
	s.mu.Unlock()
	if bufs.ring == nil {
		bufs.ring = make([]outcome, t.cfg.Inflight)
		for i := range bufs.ring {
			bufs.ring[i].seq = -1
		}
		bufs.completions = make(chan outcome, t.cfg.Inflight)
	}
	var order []int
	if t.cfg.Shuffle {
		order = (&pipeline.ShuffledSource{N: t.sd.ds.Len(), Seed: t.cfg.Seed}).OrderInto(bufs.order, epoch)
	} else {
		order = (&pipeline.SequentialSource{N: t.sd.ds.Len()}).OrderInto(bufs.order, epoch)
	}
	it := &Iterator{
		t:           t,
		completions: bufs.completions,
		abort:       make(chan struct{}),
		ring:        bufs.ring,
	}
	it.noteDrain()
	// The detach check, publishing the iterator and queueing its first
	// requests share one critical section, so a concurrent Detach either
	// refuses this epoch or closes its iterator after the ring is written.
	s.mu.Lock()
	if t.detached {
		s.mu.Unlock()
		return nil
	}
	it.order = order
	t.live = append(t.live, it)
	for seq := 0; seq < min(t.cfg.Inflight, len(order)); seq++ {
		s.enqueueLocked(it, seq)
	}
	s.mu.Unlock()
	return it
}

// Next returns the next batch in schedule order, (nil, nil) at a clean end
// of epoch, or the first terminal sample error. Returned batches come from
// the shared slab pool; the consumer releases them when done. Next returns
// errDetached once Close has run, including a Close from another goroutine
// while Next is blocked.
func (it *Iterator) Next() (*pipeline.Batch, error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.done {
		return nil, nil
	}
	if it.closed {
		return nil, errDetached
	}
	t := it.t
	b := t.sd.pool.GetBatch(t.cfg.Batch)
	for len(b.Indices) < t.cfg.Batch {
		if it.next == len(it.order) {
			it.done = true
			t.retire(it, true)
			if len(b.Indices) == 0 || t.cfg.DropLast {
				b.Release()
				return nil, nil
			}
			break
		}
		o, err := it.take()
		if err != nil {
			b.Release()
			return nil, err
		}
		if o.shed {
			continue // shed past its deadline: already counted, not an error
		}
		if o.err != nil {
			if it.skippable(o.err) {
				it.skips++
				t.to.skips.Inc()
				continue
			}
			it.done = true
			b.Release()
			t.to.errors.Inc()
			return nil, o.err
		}
		b.Data = append(b.Data, o.data)
		b.Labels = append(b.Labels, o.label)
		b.Indices = append(b.Indices, o.index)
	}
	t.to.samples.Add(int64(len(b.Indices)))
	t.to.batches.Inc()
	return b, nil
}

// take returns the outcome at schedule position it.next, receiving
// completions into the ring until it arrives, and queues the request
// Inflight positions later in its place. The caller holds it.mu, which
// take releases while it blocks.
func (it *Iterator) take() (outcome, error) {
	slot := &it.ring[it.next%len(it.ring)]
	for slot.seq != it.next {
		it.mu.Unlock()
		var o outcome
		select {
		case o = <-it.completions:
		case <-it.abort:
			it.mu.Lock()
			return outcome{}, errDetached
		}
		it.mu.Lock()
		if it.closed {
			// Close recycled the ring while we waited; o is ours alone.
			it.t.sd.pool.PutTensor(o.data)
			return outcome{}, errDetached
		}
		it.noteDrain()
		it.ring[o.seq%len(it.ring)] = o
	}
	o := *slot
	*slot = outcome{seq: -1}
	it.next++
	if seq := it.next - 1 + len(it.ring); seq < len(it.order) {
		s := it.t.svc
		s.mu.Lock()
		if !it.t.detached {
			s.enqueueLocked(it, seq)
		}
		s.mu.Unlock()
	}
	return o, nil
}

// skippable reports whether err is a per-sample failure the epoch may
// survive under MaxBadSamples: terminal decode failures and poison
// rejections qualify; breaker rejections and teardown sentinels do not.
func (it *Iterator) skippable(err error) bool {
	if it.t.cfg.MaxBadSamples <= 0 || it.skips >= it.t.cfg.MaxBadSamples {
		return false
	}
	var se *SampleError
	var pe *PoisonError
	return errors.As(err, &se) || errors.As(err, &pe)
}

// Close aborts the epoch: requests still queued are dropped when a worker
// reaches them, outcomes held in the ring or waiting in completions are
// recycled, and the iterator leaves the tenant's live set, so a close
// mid-epoch leaks no pooled memory. Safe to call while Next is blocked, and
// that Next returns errDetached. Idempotent.
func (it *Iterator) Close() {
	it.mu.Lock()
	if !it.closed {
		it.closed = true
		close(it.abort)
		pool := it.t.sd.pool
		for _, o := range it.ring {
			pool.PutTensor(o.data)
		}
	drain:
		for {
			select {
			case o := <-it.completions:
				pool.PutTensor(o.data)
			default:
				break drain
			}
		}
	}
	it.mu.Unlock()
	it.t.retire(it, false)
}
