// Package dataserve is the in-process multi-tenant data service: one
// long-running service multiplexes N concurrent training jobs (tenants)
// over shared datasets, decoding every distinct sample exactly once.
//
// It is the disaggregated data-service architecture of Uber's
// high-throughput pipeline work mapped onto this repo's primitives: the
// decoded-sample store is a pipeline.SampleCache (two-tier HostMem/NVMe
// LRU with end-to-end integrity checksums and quarantine), decode work
// runs on a shared worker pool fed by a deficit-weighted fair-queueing
// dispatcher, and concurrent requests for the same sample collapse into
// a single flight — waiters block on the one decode instead of
// duplicating it. Each tenant keeps the single-owner loader contract it
// would have had with a private pipeline.Loader: a deterministic
// per-epoch schedule (same Source derivation, so batches are
// bit-identical to a single-tenant run), an independent admission budget
// whose backpressure reaches that tenant's source alone, and per-tenant
// accounting (dataserve.tenant.* metrics, Stats) that reconciles exactly
// against the service totals and any fault-injector log.
package dataserve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/trace"
)

// Config sizes the service's shared machinery.
type Config struct {
	// Workers is the decode worker pool width. Defaults to GOMAXPROCS,
	// floored at 2 so single-flight waiters always leave a runnable owner.
	Workers int
	// QueueDepth bounds the dispatched-work queue between the fair-queueing
	// dispatcher and the workers. Defaults to 2*Workers.
	QueueDepth int
	// Quantum is the deficit replenished per dispatcher visit, in cost
	// units per unit of tenant weight: a tenant with weight w is granted
	// Quantum*w units each round before the dispatcher moves on.
	// Defaults to 2.
	Quantum int
	// CostUnitBytes switches the dispatcher from unit sample cost to
	// byte-weighted cost: serving a sample charges
	// ceil(payloadBytes/CostUnitBytes) deficit units instead of 1, so under
	// a ragged domain a tenant drawing fat samples gets proportionally
	// fewer dispatches per round than one drawing thin samples, and the
	// fair share becomes bytes per round rather than samples per round.
	// The charge is floored at 1 and capped at the tenant's full
	// replenishment (Quantum*Weight), so any sample is servable within one
	// visit. A sample's payload size (the decoded tensor's raw element
	// bytes plus its label's) is learned when its first decode is admitted;
	// until then it is charged unit cost, so a cold service converges to
	// byte fairness within one epoch.
	// 0 (the default) keeps exact unit-cost dispatch — fixed-shape
	// workloads see the legacy behavior bit for bit.
	CostUnitBytes int
	// Obs, when non-nil, receives the dataserve.* service metrics and the
	// dataserve.tenant.<name>.* per-tenant metrics.
	Obs *obs.Registry
	// Clock timestamps breaker backoffs and consumer stalls. Defaults to
	// a wall clock; tests pass a trace.VirtualClock to drive both
	// deterministically.
	Clock trace.Clock
	// StallSeconds arms the slow-consumer watchdog: a tenant whose sink
	// has been blocked on an undrained iterator for at least this long
	// (on Clock) is detached, releasing its requests and pooled memory.
	// 0 disables the watchdog. Requires Clock to implement trace.Alarm
	// (both the wall clock and VirtualClock do).
	StallSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 2 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.Quantum <= 0 {
		c.Quantum = 2
	}
	if c.Clock == nil {
		c.Clock = trace.NewWallClock()
	}
	return c
}

// request is one tenant sample request queued for dispatch.
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

	mu           sync.Mutex
	datasets     map[string]*sharedDataset
	tenants      map[string]*Tenant
	order        []*Tenant // dispatcher visiting order (attach order)
	shedOrder    []*Tenant // shed-pass order: ascending weight, then attach
	cursor       int       // round-robin position in order
	deficit      int       // remaining serve budget of order[cursor]
	dispatchSeq  int64     // total requests dispatched, drives queue-wait lag
	shed         int64     // requests shed past their admission deadline
	shedBytes    int64     // known payload bytes of shed requests
	breakerFails int64     // requests fast-failed by open breakers
	slowDetached int64     // tenants detached by the stall watchdog
	closed       bool

	// servedBytes is the payload bytes successfully served, all tenants.
	// It is atomic so a serve never takes mu, the dispatcher's lock.
	servedBytes atomic.Int64

	notify chan struct{} // capacity 1: wakes an idle dispatcher
	abort  chan struct{} // closed by Close
	workq  chan request
	wg     sync.WaitGroup
}

// New starts a service: the fair-queueing dispatcher plus cfg.Workers
// decode workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		clock:    cfg.Clock,
		datasets: make(map[string]*sharedDataset),
		tenants:  make(map[string]*Tenant),
		notify:   make(chan struct{}, 1),
		abort:    make(chan struct{}),
		workq:    make(chan request, cfg.QueueDepth),
	}
	s.ob = newServiceObs(cfg.Obs)
	s.wg.Add(1 + cfg.Workers)
	go s.dispatch()
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if alarm, ok := s.clock.(trace.Alarm); ok && cfg.StallSeconds > 0 {
		s.wg.Add(1)
		go s.watchdog(alarm)
	}
	return s
}

// Close detaches every tenant, stops the dispatcher and workers, and waits
// for them to exit. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
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

// enqueue appends a request to its tenant's pending queue and wakes the
// dispatcher. It reports false when the service is closed or the tenant
// detached, so the caller's source loop stops feeding. A request refused
// by the tenant's open breaker never reaches the queue: its *BreakerError
// outcome is delivered straight to the iterator, consuming no dispatcher
// slot or decode worker.
func (s *Service) enqueue(it *Iterator, seq, index int) bool {
	t := it.t
	s.mu.Lock()
	if s.closed || t.detached {
		s.mu.Unlock()
		return false
	}
	allow, probe := t.admitBreakerLocked(s.clock.Now())
	if !allow {
		retry := t.brk.until - s.clock.Now()
		s.breakerFails++
		s.mu.Unlock()
		s.ob.breakerRejects.Inc()
		if retry < 0 {
			retry = 0
		}
		o := outcome{seq: seq, index: index, err: &BreakerError{Tenant: t.name, Index: index, Retry: retry}}
		select {
		case it.completions <- o:
		case <-it.abort:
		case <-s.abort:
		}
		return true
	}
	t.pushLocked(request{it: it, seq: seq, index: index, enq: s.dispatchSeq, probe: probe})
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return true
}

// dispatch is the fair-queueing loop: deficit round robin over the attached
// tenants — each visit replenishes the tenant's deficit by Quantum*Weight
// cost units and serves its pending requests against that budget before
// moving on, so a tenant flooding requests is bounded to its weight share
// per round and cannot starve a light tenant. Cost is 1 per sample, or the
// sample's byte charge under Config.CostUnitBytes. Queue wait
// is measured in dispatch lag (requests the service dispatched between a
// request's enqueue and its own dispatch): a deterministic fairness signal
// that does not depend on wall time.
func (s *Service) dispatch() {
	defer s.wg.Done()
	for {
		r, shed, ok := s.nextRequest()
		for _, sr := range shed {
			s.deliverShed(sr)
		}
		if !ok {
			select {
			case <-s.notify:
				continue
			case <-s.abort:
				return
			}
		}
		select {
		case s.workq <- r:
		case <-s.abort:
			return
		}
	}
}

// deliverShed hands a shed request's outcome back to its iterator so the
// reorder buffer accounts for the sequence slot; the iterator skips it
// without failing the epoch.
func (s *Service) deliverShed(r request) {
	o := outcome{seq: r.seq, index: r.index, shed: true}
	select {
	case r.it.completions <- o:
	case <-r.it.abort:
	case <-s.abort:
	}
}

// nextRequest picks the next request under deficit round robin, after a
// shed pass dropped every pending request past its admission deadline
// (returned for out-of-lock delivery). The first visit is the cursor's
// tenant with its leftover deficit; each further visit advances the cursor
// and replenishes the visited tenant's deficit, so one call scans at most
// a full round (n+1 visits) before reporting that no request is pending
// anywhere. A tenant whose backlog drains with deficit left forfeits the
// leftover — the standard DRR empty-queue reset. A serve charges the
// request's cost (1, or its byte charge under CostUnitBytes); a charge
// larger than the remaining deficit is allowed once the tenant has any
// deficit at all, and the overdraft is simply forfeited at the next
// replenishment, so an expensive sample delays its own tenant's round, not
// the ring.
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
			s.deficit = s.cfg.Quantum * t.cfg.Weight
		}
		if t.pendHead < len(t.pend) && s.deficit >= 1 {
			r := t.popLocked()
			s.deficit -= s.serveCostLocked(t, r)
			lag := s.dispatchSeq - r.enq
			s.dispatchSeq++
			s.ob.dispatched.Inc()
			t.noteLag(lag)
			return r, shed, true
		}
		s.cursor = (s.cursor + 1) % n
	}
	return request{}, shed, false
}

// serveCostLocked prices one request for the DRR deficit: 1 under legacy
// unit cost (CostUnitBytes 0) or while the sample's payload size is not yet
// known, otherwise ceil(bytes/CostUnitBytes) floored at 1 and capped at the
// tenant's full replenishment Quantum*Weight so any sample is servable
// within a single visit. Caller holds s.mu; the dataset's size table is
// lock-free.
func (s *Service) serveCostLocked(t *Tenant, r request) int {
	u := s.cfg.CostUnitBytes
	if u <= 0 {
		return 1
	}
	n, ok := t.sd.sampleSize(r.index)
	if !ok {
		return 1
	}
	cost := (n + u - 1) / u
	if cost < 1 {
		cost = 1
	}
	if full := s.cfg.Quantum * t.cfg.Weight; cost > full {
		cost = full
	}
	return cost
}

// noteServedBytes credits one successful serve's payload bytes to the
// service and tenant byte accounting.
func (s *Service) noteServedBytes(t *Tenant, n int64) {
	s.servedBytes.Add(n)
	s.ob.bytesServed.Add(n)
	t.noteBytes(n)
}

// shedLocked drops every pending request whose dispatch lag exceeds its
// tenant's admission deadline. Tenants are visited lowest weight first
// (attach order breaking ties), so under overload the cheap flows shrink
// before the expensive ones — a deterministic policy the chaos sweep can
// reconcile exactly. Caller holds s.mu; outcomes are delivered by the
// caller outside the lock.
func (s *Service) shedLocked() []request {
	var shed []request
	for _, t := range s.shedOrder {
		for t.pendHead < len(t.pend) && s.dispatchSeq-t.pend[t.pendHead].enq > t.cfg.DeadlineLag {
			r := t.popLocked()
			if r.probe {
				t.breakerAbortProbeLocked()
			}
			s.shed++
			s.ob.shed.Inc()
			// Shed bytes are best-effort: a request shed before its sample
			// was ever decoded has no known size and is counted as 0.
			if n, ok := t.sd.sampleSize(r.index); ok {
				s.shedBytes += int64(n)
				s.ob.bytesShed.Add(int64(n))
			}
			t.noteShed()
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
// tenant whose sink has been blocked for at least StallSeconds, so one
// abandoned consumer cannot pin pooled memory and queue slots forever.
func (s *Service) watchdog(alarm trace.Alarm) {
	defer s.wg.Done()
	period := s.cfg.StallSeconds / 2
	for {
		ch, cancel := alarm.After(s.clock.Now() + period)
		select {
		case <-ch:
		case <-s.abort:
			cancel()
			return
		}
		now := s.clock.Now()
		var stale []*Tenant
		s.mu.Lock()
		for _, t := range s.order {
			t.mu.Lock()
			cur := t.cur
			t.mu.Unlock()
			if cur != nil && cur.stalledFor(now) >= s.cfg.StallSeconds {
				stale = append(stale, t)
			}
		}
		s.slowDetached += int64(len(stale))
		s.mu.Unlock()
		for _, t := range stale {
			s.ob.slowDetached.Inc()
			t.noteSlowDetached()
			t.Detach()
		}
	}
}

// worker consumes dispatched requests: fetch the sample through the shared
// cache / single-flight layer, then deliver the outcome to the request's
// iterator. Deliveries race tenant detach, so every send is guarded by the
// iterator's abort and the service's; a dropped delivery recycles its
// pooled tensor.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		var r request
		select {
		case r = <-s.workq:
		case <-s.abort:
			return
		}
		s.process(r)
	}
}

// process serves one request end to end, feeding its outcome to the
// tenant's breaker before delivery.
func (s *Service) process(r request) {
	t := r.it.t
	select {
	case <-r.it.abort:
		if r.probe {
			s.mu.Lock()
			t.breakerAbortProbeLocked()
			s.mu.Unlock()
		}
		return // stale: iterator closed between dispatch and service
	default:
	}
	data, label, err := t.sd.fetch(r.it, r.index)
	if err != errDetached && err != errClosed {
		s.mu.Lock()
		t.recordBreakerLocked(r.probe, err != nil, s.clock.Now())
		s.mu.Unlock()
	} else if r.probe {
		s.mu.Lock()
		t.breakerAbortProbeLocked()
		s.mu.Unlock()
	}
	o := outcome{seq: r.seq, index: r.index, data: data, label: label, err: err}
	select {
	case r.it.completions <- o:
	case <-r.it.abort:
		t.sd.pool.PutTensor(data)
	case <-s.abort:
		t.sd.pool.PutTensor(data)
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

// ServiceStats is a point-in-time snapshot of the service's shared-path
// accounting, summed over its registered datasets.
type ServiceStats struct {
	// Decodes counts samples decoded (single-flight owners, including any
	// re-decode after a cache quarantine or eviction); Dedup counts
	// first-touch accesses a tenant was served without decoding itself —
	// the work sharing saved. With K tenants over S fully cached samples,
	// Decodes == S and Dedup == (K-1)*S.
	Decodes, Dedup int64
	// CacheHits/CacheMisses/CacheQuarantined aggregate the shared caches'
	// Get outcomes, and Retries the transient-fault retries absorbed by
	// flight owners (reconciles against an injector log).
	CacheHits, CacheMisses, CacheQuarantined, Retries int64
	// Dispatched counts requests the fair-queueing dispatcher served.
	Dispatched int64
	// Shed counts requests dropped past their admission deadline, and
	// BreakerRejects the requests fast-failed by open tenant breakers —
	// neither ever consumed a dispatcher slot or decode worker.
	Shed, BreakerRejects int64
	// ServedBytes totals the payload bytes (the decoded sample's raw
	// element bytes, with no header, plus its label's) successfully served
	// across all tenants — the byte-weighted dispatcher's cost basis, so it
	// reconciles against Σ TenantStats.BytesServed exactly. ShedBytes is
	// the same basis over shed requests whose sample size was already known
	// (a never-decoded sample sheds as 0 bytes).
	ServedBytes, ShedBytes int64
	// Poisoned counts samples blacklisted service-wide after failing K
	// distinct tenants; PoisonRejects the requests fast-failed off the
	// blacklist.
	Poisoned, PoisonRejects int64
	// SlowDetaches counts tenants severed by the slow-consumer watchdog.
	SlowDetaches int64
	// Tenants is the currently attached tenant count.
	Tenants int
}

// Stats returns a snapshot of the service's accounting.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	datasets := make([]*sharedDataset, 0, len(s.datasets))
	for _, sd := range s.datasets {
		datasets = append(datasets, sd)
	}
	st := ServiceStats{
		Dispatched:     s.dispatchSeq,
		Shed:           s.shed,
		ServedBytes:    s.servedBytes.Load(),
		ShedBytes:      s.shedBytes,
		BreakerRejects: s.breakerFails,
		SlowDetaches:   s.slowDetached,
		Tenants:        len(s.tenants),
	}
	s.mu.Unlock()
	for _, sd := range datasets {
		cs := sd.cache.Stats()
		st.CacheHits += cs.Hits
		st.CacheMisses += cs.Misses
		st.CacheQuarantined += cs.Quarantined
		sd.mu.Lock()
		st.Decodes += sd.decodes
		st.Dedup += sd.dedup
		st.Retries += sd.retries
		st.Poisoned += sd.poisonedCount
		st.PoisonRejects += sd.poisonRejects
		sd.mu.Unlock()
	}
	return st
}
