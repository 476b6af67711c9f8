// Package dataserve is the in-process multi-tenant data service: one
// long-running service multiplexes N concurrent training jobs (tenants)
// over shared datasets, decoding every distinct sample exactly once.
//
// It is the disaggregated data-service architecture of Uber's
// high-throughput pipeline work mapped onto this repo's primitives: the
// decoded-sample store is a pipeline.SampleCache (two-tier HostMem/NVMe
// LRU with end-to-end integrity checksums and quarantine), decode work
// runs on a shared worker pool whose workers each pick their next request
// by deficit-weighted fair queueing when they fall free, and concurrent
// requests for the same sample collapse into a single flight — waiters
// block on the one decode instead of duplicating it. Only two kinds of
// goroutine carry a sample: the workers, and each tenant's consumer, whose
// Next queues the tenant's requests and restores schedule order itself.
// Each tenant keeps the single-owner loader contract it would have had
// with a private pipeline.Loader: a deterministic per-epoch schedule (same
// Source derivation, so batches are bit-identical to a single-tenant run),
// an independent admission budget whose backpressure reaches that
// tenant's schedule alone, and per-tenant accounting (dataserve.tenant.*
// metrics, read back by Stats) that reconciles exactly against the service
// totals and any fault-injector log.
package dataserve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/trace"
)

// Config sizes the service's shared machinery.
type Config struct {
	// Workers is the decode worker pool width. Defaults to GOMAXPROCS,
	// floored at 2 so single-flight waiters always leave a runnable owner.
	Workers int
	// Obs holds the dataserve.* service metrics and the
	// dataserve.tenant.<name>.* per-tenant metrics. Defaults to a registry
	// private to the service. The metrics are the service's only ledger —
	// Service.Stats and Tenant.Stats read them — so two services sharing
	// one registry also share their stats.
	Obs *obs.Registry
	// Clock timestamps breaker backoffs and consumer stalls. Defaults to
	// a wall clock; tests pass a trace.VirtualClock to drive both
	// deterministically.
	Clock trace.Clock
	// StallSeconds arms the slow-consumer watchdog: a tenant with a live
	// iterator whose served outcomes have sat undrained for at least this
	// long (on Clock) is detached, releasing its requests and pooled
	// memory. 0 disables the watchdog. Requires Clock to implement
	// trace.Alarm (both the wall clock and VirtualClock do).
	StallSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = trace.NewWallClock()
	}
	return c
}

// quantum is the deficit replenished per DRR visit, in requests per unit
// of tenant weight: a tenant with weight w is served up to quantum*w
// requests each round before the workers' pick moves on.
const quantum = 2

// request is one tenant sample request queued for a worker.
type request struct {
	it    *Iterator
	seq   int   // schedule position within the iterator's epoch
	index int   // dataset sample index
	enq   int64 // service dispatch count at enqueue, for queue-wait lag
	probe bool  // the tenant breaker's single half-open probe
}

// Service is the multi-tenant data service. Construct with New, register
// datasets with Register, attach tenants with Attach, and Close when done.
// All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	ob    serviceObs
	clock trace.Clock

	// mu guards the fair-queueing state and the tenants' queue-owned
	// fields. The dataserve.dispatched counter doubles as the queue-wait
	// lag clock, so it is written only under mu.
	mu        sync.Mutex
	datasets  map[string]*sharedDataset
	tenants   map[string]*Tenant
	order     []*Tenant // DRR visiting order (attach order)
	shedOrder []*Tenant // shed-pass order: ascending weight, then attach
	cursor    int       // round-robin position in order
	deficit   int       // remaining serve budget of order[cursor]
	closed    bool

	queued sync.Cond     // on mu: signalled per queued request, broadcast by Close
	abort  chan struct{} // closed by Close
	wg     sync.WaitGroup
}

// New starts a service: cfg.Workers decode workers, plus the slow-consumer
// watchdog when StallSeconds arms it.
func New(cfg Config) *Service {
	s := newService(cfg)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	if alarm, ok := s.clock.(trace.Alarm); ok && s.cfg.StallSeconds > 0 {
		s.wg.Add(1)
		go s.watchdog(alarm, s.clock.Now())
	}
	return s
}

// newService builds a service and its ledger without starting any
// goroutine: New starts them, and white-box tests drive the DRR pick
// themselves.
func newService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		ob:       newServiceObs(cfg.Obs),
		clock:    cfg.Clock,
		datasets: make(map[string]*sharedDataset),
		tenants:  make(map[string]*Tenant),
		abort:    make(chan struct{}),
	}
	s.queued.L = &s.mu
	return s
}

// Close detaches every tenant, stops the workers, and waits for them to
// exit. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.queued.Broadcast()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.Detach()
	}
	close(s.abort)
	s.wg.Wait()
}

// enqueueLocked queues schedule position seq of it behind its tenant's
// pending requests and wakes one idle worker. A request refused by the
// tenant's open breaker never reaches the queue: its *BreakerError outcome
// goes straight into the iterator's reorder ring, consuming no worker.
// Caller holds s.mu, and it.mu once Epoch has returned the iterator.
func (s *Service) enqueueLocked(it *Iterator, seq int) {
	t, index := it.t, it.order[seq]
	now := s.clock.Now()
	allow, probe := t.admitBreakerLocked(now)
	if !allow {
		s.ob.breakerRejects.Inc()
		err := &BreakerError{Tenant: t.name, Index: index, Retry: max(t.brk.until-now, 0)}
		it.ring[seq%len(it.ring)] = outcome{seq: seq, index: index, err: err}
		return
	}
	t.pushLocked(request{it: it, seq: seq, index: index, enq: s.ob.dispatched.Value(), probe: probe})
	s.queued.Signal()
}

// worker serves requests until the service closes, picking each by the
// shed pass plus deficit round robin (nextRequest): a tenant flooding
// requests is bounded to its weight share per round and cannot starve a
// light tenant. Queue wait is measured in dispatch lag (requests the
// service dispatched between a request's enqueue and its own dispatch): a
// deterministic fairness signal that does not depend on wall time. A
// worker that finds nothing pending sleeps on s.queued, and every queued
// request signals one sleeper, so no request waits while a worker idles.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		r, shed, ok := s.nextRequest()
		for _, sr := range shed {
			s.deliver(sr.it, outcome{seq: sr.seq, index: sr.index, shed: true})
		}
		if ok {
			s.process(r)
			continue
		}
		s.mu.Lock()
		for !s.closed && !s.pendingLocked() {
			s.queued.Wait()
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

// pendingLocked reports whether any attached tenant has a queued request.
// Caller holds s.mu.
func (s *Service) pendingLocked() bool {
	for _, t := range s.order {
		if t.pendHead < len(t.pend) {
			return true
		}
	}
	return false
}

// nextRequest picks the next request under deficit round robin, after a
// shed pass dropped every pending request past its admission deadline
// (returned for out-of-lock delivery). The first visit is the cursor's
// tenant with its leftover deficit; each further visit advances the cursor
// and replenishes the visited tenant's deficit, so one call scans at most
// a full round (n+1 visits) before reporting that no request is pending
// anywhere. A tenant whose backlog drains with deficit left forfeits the
// leftover — the standard DRR empty-queue reset. Every serve charges one
// unit, whatever the sample's payload size.
func (s *Service) nextRequest() (request, []request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	shed := s.shedLocked()
	n := len(s.order)
	if n == 0 {
		return request{}, shed, false
	}
	if s.cursor >= n {
		s.cursor = 0 // a detach shrank the ring under the cursor
	}
	for visit := 0; visit <= n; visit++ {
		t := s.order[s.cursor]
		if visit > 0 {
			s.deficit = quantum * t.cfg.Weight
		}
		if t.pendHead < len(t.pend) && s.deficit >= 1 {
			r := t.popLocked()
			s.deficit--
			lag := float64(s.ob.dispatched.Value() - r.enq)
			s.ob.dispatched.Inc()
			t.to.queueWait.Observe(lag)
			t.to.queueWaitMax.Set(lag)
			return r, shed, true
		}
		s.cursor = (s.cursor + 1) % n
	}
	return request{}, shed, false
}

// shedLocked drops every pending request whose dispatch lag exceeds its
// tenant's admission deadline. Tenants are visited lowest weight first
// (attach order breaking ties), so under overload the cheap flows shrink
// before the expensive ones — a deterministic policy the chaos sweep can
// reconcile exactly. Caller holds s.mu; outcomes are delivered by the
// caller outside the lock.
func (s *Service) shedLocked() []request {
	var shed []request
	now := s.ob.dispatched.Value()
	for _, t := range s.shedOrder {
		for t.pendHead < len(t.pend) && now-t.pend[t.pendHead].enq > t.cfg.DeadlineLag {
			r := t.popLocked()
			if r.probe {
				t.breakerAbortProbeLocked()
			}
			s.ob.shed.Inc()
			t.to.shed.Inc()
			// Shed bytes are best-effort: a request shed before its sample
			// was ever decoded has no known size and is counted as 0.
			if n, ok := t.sd.sampleSize(r.index); ok {
				s.ob.bytesShed.Add(int64(n))
			}
			shed = append(shed, r)
		}
	}
	return shed
}

// rebuildShedOrderLocked recomputes the shed pass's visiting order: the
// tenants with an admission deadline, ascending weight, attach order
// breaking ties. Caller holds s.mu.
func (s *Service) rebuildShedOrderLocked() {
	s.shedOrder = s.shedOrder[:0]
	for _, t := range s.order {
		if t.cfg.DeadlineLag > 0 {
			s.shedOrder = append(s.shedOrder, t)
		}
	}
	sort.SliceStable(s.shedOrder, func(i, j int) bool {
		return s.shedOrder[i].cfg.Weight < s.shedOrder[j].cfg.Weight
	})
}

// watchdog detaches tenants whose consumers stopped draining: every
// StallSeconds/2 on the clock it scans the live iterators and severs any
// tenant with one whose consumer has left outcomes undrained for at least
// StallSeconds, so one abandoned consumer cannot pin pooled memory and
// queue slots forever. Each tick counts from the reading taken before the
// previous scan (the first from since, read in New), not from when the
// next alarm is armed: a virtual clock that jumps while the watchdog scans
// brings the next scan forward instead of slipping it past the jump.
func (s *Service) watchdog(alarm trace.Alarm, since float64) {
	defer s.wg.Done()
	period := s.cfg.StallSeconds / 2
	next := since + period
	for {
		ch, cancel := alarm.After(next)
		select {
		case <-ch:
		case <-s.abort:
			cancel()
			return
		}
		now := s.clock.Now()
		next = now + period
		var stale []*Tenant
		s.mu.Lock()
		for _, t := range s.order {
			for _, it := range t.live {
				if it.stalledFor(now) >= s.cfg.StallSeconds {
					stale = append(stale, t)
					break
				}
			}
		}
		s.mu.Unlock()
		for _, t := range stale {
			s.ob.slowDetached.Inc()
			t.to.slowDetached.Inc()
			t.Detach()
		}
	}
}

// process serves one request end to end — fetch the sample through the
// shared cache / single-flight layer, credit a successful serve's payload
// bytes, feed the outcome to the tenant's breaker — and delivers the
// outcome to the request's iterator.
func (s *Service) process(r request) {
	t := r.it.t
	select {
	case <-r.it.abort:
		if r.probe {
			s.mu.Lock()
			t.breakerAbortProbeLocked()
			s.mu.Unlock()
		}
		return // stale: iterator closed between enqueue and service
	default:
	}
	data, label, err := t.sd.fetch(r.it, r.index)
	if err == nil {
		n := t.sd.learned[r.index].payload
		s.ob.bytesServed.Add(n)
		t.to.bytesServed.Add(n)
	}
	if t.brk != nil {
		s.mu.Lock()
		if err != errDetached && err != errClosed {
			t.recordBreakerLocked(r.probe, err != nil, s.clock.Now())
		} else if r.probe {
			t.breakerAbortProbeLocked()
		}
		s.mu.Unlock()
	}
	s.deliver(r.it, outcome{seq: r.seq, index: r.index, data: data, label: label, err: err})
}

// deliver hands an outcome to its iterator's completions, or recycles its
// tensor when the iterator has closed. The send does not wait on the
// consumer: an iterator has at most Inflight requests outstanding, and
// completions holds Inflight outcomes.
func (s *Service) deliver(it *Iterator, o outcome) {
	// Read once, before the send: once the consumer has taken o it may end
	// the epoch and hand completions to the tenant's next one.
	completions := it.completions
	select {
	case completions <- o:
		// An empty buffer after the send means a consumer blocked in Next
		// took o directly. The runtime queues that consumer behind this
		// worker, which would run on through its next requests first;
		// yield so the consumer's wait ends now.
		if len(completions) == 0 {
			runtime.Gosched()
		}
	case <-it.abort:
		it.t.sd.pool.PutTensor(o.data)
	}
}

// Register adds a shared dataset to the service. Tenants attach to it by
// name; its decoded samples live in one shared SampleCache.
func (s *Service) Register(cfg DatasetConfig) error {
	sd, err := newSharedDataset(s, cfg)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("dataserve: register %q on closed service", cfg.Name)
	}
	if _, ok := s.datasets[cfg.Name]; ok {
		return fmt.Errorf("dataserve: dataset %q already registered", cfg.Name)
	}
	s.datasets[cfg.Name] = sd
	return nil
}

// Cache returns the shared decoded-sample cache behind a registered
// dataset — the hook chaos harnesses use to attach a fault.CacheInjector
// via SetTamper — or nil if the name is unknown.
func (s *Service) Cache(dataset string) *pipeline.SampleCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sd, ok := s.datasets[dataset]; ok {
		return sd.cache
	}
	return nil
}

// Pool returns the slab pool tenant batches of a registered dataset draw
// from, or nil if the name is unknown.
func (s *Service) Pool(dataset string) *pipeline.SlabPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sd, ok := s.datasets[dataset]; ok {
		return sd.pool
	}
	return nil
}
