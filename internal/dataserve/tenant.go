package dataserve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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
	// Weight is the tenant's fair-queueing share: the dispatcher serves up
	// to Quantum*Weight of its requests per round. Default 1.
	Weight int
	// Inflight is the admission budget — the tenant's source stops feeding
	// once this many samples are requested but not yet consumed, so one
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
	// Quota, when positive, caps the samples ever served to this tenant;
	// an epoch hitting the cap serves its admitted prefix and then Next
	// reports a *QuotaError.
	Quota int64
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

// TenantStats is a point-in-time snapshot of one tenant's accounting. The
// dataserve.tenant.* metrics are written by the same code paths, so the
// two views reconcile exactly.
type TenantStats struct {
	// Samples counts samples delivered into batches; Batches the batches.
	Samples, Batches int64
	// Decodes counts flights this tenant owned; Dedup its first-touch
	// serves that skipped a decode (cache borrows plus flight joins).
	Decodes, Dedup int64
	// HitsOwned/HitsBorrowed split this tenant's shared-cache hits by
	// whether it decoded the sample itself; Joins counts single-flight
	// waits on another request's in-progress decode.
	HitsOwned, HitsBorrowed, Joins int64
	// Retries counts transient-fault retries absorbed while this tenant
	// owned the flight; Errors the terminal sample errors delivered to it.
	Retries, Errors int64
	// QuotaDenied counts schedule samples refused by the quota.
	QuotaDenied int64
	// Shed counts requests dropped past their admission deadline; Skips
	// the bad samples an epoch survived under MaxBadSamples.
	Shed, Skips int64
	// BytesServed totals the payload bytes (the decoded sample's raw
	// element bytes, with no header, plus its label's) successfully served
	// to this tenant — the byte-weighted dispatcher's cost basis. Σ over
	// tenants reconciles exactly against ServiceStats.ServedBytes.
	BytesServed int64
	// BreakerTrips counts transitions into the open state, BreakerProbes
	// the half-open probes admitted, and BreakerRejects the requests
	// fast-failed while open.
	BreakerTrips, BreakerProbes, BreakerRejects int64
	// SlowDetached counts stall-watchdog detaches of this tenant (0 or 1).
	SlowDetached int64
	// QueueWaitMax and QueueWaitP99 summarize the tenant's dispatch-lag
	// distribution (see the metrics doc: lag counts dispatches, not time).
	QueueWaitMax, QueueWaitP99 int64
}

// Tenant is one attached training job. Epoch starts a schedule, Detach
// severs the tenant (closing any live iterator) without disturbing the
// service's other tenants.
type Tenant struct {
	name string
	svc  *Service
	sd   *sharedDataset
	cfg  TenantConfig
	to   tenantObs

	// pend, pendHead, detached, and brk belong to the service dispatcher
	// and are guarded by svc.mu; everything below mu is tenant-local.
	// pend[pendHead:] are the queued requests, oldest first.
	pend     []request
	pendHead int
	detached bool
	brk      *breaker // nil when the breaker is disabled

	mu        sync.Mutex
	stats     TenantStats
	lagCounts []int64 // parallel to lagBounds, plus one overflow bucket
	quotaUsed int64
	cur       *Iterator
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
		name:      cfg.Name,
		svc:       s,
		sd:        sd,
		cfg:       cfg,
		to:        newTenantObs(s.cfg.Obs, cfg.Name),
		lagCounts: make([]int64, len(lagBounds)+1),
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

// Detach severs the tenant: its pending requests are dropped, its live
// iterator (if any) is closed and drained, and the dispatcher stops
// visiting it. In-progress flights it owns are service work and run to
// completion, so tenants waiting on them are unaffected. Idempotent.
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
	s.mu.Unlock()
	t.mu.Lock()
	cur := t.cur
	t.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}

// Stats returns a snapshot of the tenant's accounting.
func (t *Tenant) Stats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.QueueWaitP99 = lagQuantile(t.lagCounts, 0.99)
	return st
}

// lagQuantile returns the q-quantile upper bound of a lag histogram: the
// smallest bucket bound covering at least ceil(q*count) observations. The
// overflow bucket reports the last bound + 1 (an "off the scale" marker).
func lagQuantile(counts []int64, q float64) int64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := int64(q*float64(total) + 0.5)
	if need < 1 {
		need = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= need {
			if i < len(lagBounds) {
				return int64(lagBounds[i])
			}
			return int64(lagBounds[len(lagBounds)-1]) + 1
		}
	}
	return int64(lagBounds[len(lagBounds)-1]) + 1
}

// noteLag records one request's dispatch lag. Called by the dispatcher
// under svc.mu; takes only t.mu inside it.
func (t *Tenant) noteLag(lag int64) {
	t.to.queueWait.Observe(float64(lag))
	t.to.queueWaitMax.Set(float64(lag))
	t.mu.Lock()
	if lag > t.stats.QueueWaitMax {
		t.stats.QueueWaitMax = lag
	}
	i := sort.SearchFloat64s(lagBounds, float64(lag))
	t.lagCounts[i]++
	t.mu.Unlock()
}

// noteHit records a shared-cache hit serving this tenant.
func (t *Tenant) noteHit(owned, first bool) {
	t.mu.Lock()
	if owned {
		t.stats.HitsOwned++
	} else {
		t.stats.HitsBorrowed++
	}
	if first {
		t.stats.Dedup++
	}
	t.mu.Unlock()
	if owned {
		t.to.hitsOwned.Inc()
	} else {
		t.to.hitsBorrowed.Inc()
	}
	if first {
		t.to.dedup.Inc()
	}
}

// noteJoin records a single-flight join serving this tenant.
func (t *Tenant) noteJoin(first bool) {
	t.mu.Lock()
	t.stats.Joins++
	if first {
		t.stats.Dedup++
	}
	t.mu.Unlock()
	t.to.joins.Inc()
	if first {
		t.to.dedup.Inc()
	}
}

// noteDecode records a flight this tenant owned.
func (t *Tenant) noteDecode(retries int, err error) {
	t.mu.Lock()
	t.stats.Retries += int64(retries)
	if err == nil {
		t.stats.Decodes++
	}
	t.mu.Unlock()
	t.to.retries.Add(int64(retries))
	if err == nil {
		t.to.decodes.Inc()
	}
}

// noteBytes credits one successful serve's payload bytes to the tenant.
func (t *Tenant) noteBytes(n int64) {
	t.mu.Lock()
	t.stats.BytesServed += n
	t.mu.Unlock()
	t.to.bytesServed.Add(n)
}

// noteShed records one request shed past its admission deadline. Called by
// the dispatcher under svc.mu; takes only t.mu inside it.
func (t *Tenant) noteShed() {
	t.mu.Lock()
	t.stats.Shed++
	t.mu.Unlock()
	t.to.shed.Inc()
}

// noteSkip records one bad sample the iterator skipped under MaxBadSamples.
func (t *Tenant) noteSkip() {
	t.mu.Lock()
	t.stats.Skips++
	t.mu.Unlock()
	t.to.skips.Inc()
}

// noteSlowDetached records a stall-watchdog detach of this tenant.
func (t *Tenant) noteSlowDetached() {
	t.mu.Lock()
	t.stats.SlowDetached++
	t.mu.Unlock()
	t.to.slowDetached.Inc()
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
// Next returns (nil, nil) at a clean end of epoch, a typed error on a
// terminal failure or exhausted quota, and Close aborts early without
// leaking goroutines or pooled tensors.
type Iterator struct {
	t     *Tenant
	epoch int
	order []int // admitted schedule
	quota *QuotaError

	tokens      chan struct{}
	completions chan outcome
	ordered     chan outcome
	abort       chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
	done        bool // Next reached end of epoch (consumer-side only)
	skips       int  // bad samples skipped this epoch (consumer-side only)

	// stallMu guards the consumer's last-drain timestamp, read by the
	// slow-consumer watchdog.
	stallMu   sync.Mutex
	lastDrain float64
}

// noteDrain timestamps the consumer taking an outcome off the ordered
// channel, resetting the watchdog's undrained-backlog timer.
func (it *Iterator) noteDrain() {
	now := it.t.svc.clock.Now()
	it.stallMu.Lock()
	it.lastDrain = now
	it.stallMu.Unlock()
}

// stalledFor reports how long the consumer has been stalled at clock time
// now, or -1 when it is not. A consumer is stalled when completed outcomes
// sit buffered in ordered and nobody has drained one since lastDrain:
// results are ready and nobody is taking them. (The sink itself never
// wedges — ordered holds Inflight outcomes and the token budget caps
// outstanding work at Inflight — so the backlog is the only stall signal.)
func (it *Iterator) stalledFor(now float64) float64 {
	it.stallMu.Lock()
	defer it.stallMu.Unlock()
	if len(it.ordered) > 0 {
		return now - it.lastDrain
	}
	return -1
}

// Epoch starts iterating the tenant's schedule for the given epoch. At
// most one iterator should be live per tenant at a time; starting a new
// epoch while one is open is allowed but shares the tenant's admission
// budget. Returns nil if the tenant is detached.
func (t *Tenant) Epoch(epoch int) *Iterator {
	t.svc.mu.Lock()
	detached := t.detached
	t.svc.mu.Unlock()
	if detached {
		return nil
	}
	var src pipeline.Source
	if t.cfg.Shuffle {
		src = &pipeline.ShuffledSource{N: t.sd.ds.Len(), Seed: t.cfg.Seed}
	} else {
		src = &pipeline.SequentialSource{N: t.sd.ds.Len()}
	}
	order := src.Order(epoch)
	var quota *QuotaError
	if t.cfg.Quota > 0 {
		t.mu.Lock()
		left := t.cfg.Quota - t.quotaUsed
		if left < 0 {
			left = 0
		}
		if int64(len(order)) > left {
			denied := int64(len(order)) - left
			order = order[:left]
			t.stats.QuotaDenied += denied
			quota = &QuotaError{Tenant: t.name, Quota: t.cfg.Quota, Denied: denied}
		}
		t.quotaUsed += int64(len(order))
		t.mu.Unlock()
		if quota != nil {
			t.to.quotaDenied.Add(quota.Denied)
		}
	}
	it := &Iterator{
		t:           t,
		epoch:       epoch,
		order:       order,
		quota:       quota,
		tokens:      make(chan struct{}, t.cfg.Inflight),
		completions: make(chan outcome, t.cfg.Inflight),
		ordered:     make(chan outcome, t.cfg.Inflight),
		abort:       make(chan struct{}),
	}
	it.lastDrain = t.svc.clock.Now()
	for i := 0; i < t.cfg.Inflight; i++ {
		select {
		case it.tokens <- struct{}{}:
		default:
		}
	}
	t.mu.Lock()
	t.cur = it
	t.mu.Unlock()
	it.wg.Add(2)
	go it.source()
	go it.sink()
	return it
}

// source feeds the epoch's schedule through the tenant's admission budget:
// one token per in-flight sample, released as Next consumes outcomes, so
// backpressure from this tenant's consumer reaches only this loop.
func (it *Iterator) source() {
	defer it.wg.Done()
	for seq, index := range it.order {
		select {
		case <-it.tokens:
		case <-it.abort:
			return
		case <-it.t.svc.abort:
			return
		}
		if !it.t.svc.enqueue(it, seq, index) {
			return
		}
	}
}

// sink restores schedule order over the workers' out-of-order completions
// (the reorder-buffer idiom of pipeline.BatchStage) and closes ordered
// when the whole epoch has been released. On abort it recycles whatever
// decoded tensors it holds.
func (it *Iterator) sink() {
	defer it.wg.Done()
	pool := it.t.sd.pool
	pending := make(map[int]outcome, 8)
	recycle := func() {
		for _, o := range pending {
			pool.PutTensor(o.data)
		}
		for {
			select {
			case o := <-it.completions:
				pool.PutTensor(o.data)
			default:
				return
			}
		}
	}
	next := 0
	for next < len(it.order) {
		var o outcome
		select {
		case o = <-it.completions:
		case <-it.abort:
			recycle()
			return
		case <-it.t.svc.abort:
			recycle()
			return
		}
		pending[o.seq] = o
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			// The ordered buffer holds Inflight outcomes and the admission
			// budget caps outstanding work at Inflight, so this send only
			// blocks against teardown races — a stopped consumer shows up
			// as an undrained ordered backlog, not a blocked sink.
			select {
			case it.ordered <- r:
			case <-it.abort:
				pool.PutTensor(r.data)
				recycle()
				return
			case <-it.t.svc.abort:
				pool.PutTensor(r.data)
				recycle()
				return
			}
		}
	}
	close(it.ordered)
}

// Next returns the next batch in schedule order, (nil, nil) at a clean end
// of epoch, a *QuotaError when the quota truncated the schedule, or the
// first terminal sample error. Returned batches come from the shared slab
// pool; the consumer releases them when done.
func (it *Iterator) Next() (*pipeline.Batch, error) {
	if it.done {
		return nil, it.endErr()
	}
	t := it.t
	b := t.sd.pool.GetBatch(t.cfg.Batch)
	for len(b.Indices) < t.cfg.Batch {
		var o outcome
		var ok bool
		select {
		case o, ok = <-it.ordered:
		case <-it.abort:
			b.Release()
			return nil, errDetached
		case <-t.svc.abort:
			b.Release()
			return nil, errClosed
		}
		it.noteDrain()
		if !ok {
			it.done = true
			if len(b.Indices) == 0 || t.cfg.DropLast {
				b.Release()
				return nil, it.endErr()
			}
			it.noteBatch(len(b.Indices))
			return b, nil
		}
		select {
		case it.tokens <- struct{}{}:
		default:
		}
		if o.shed {
			continue // shed past its deadline: already counted, not an error
		}
		if o.err != nil {
			if it.skippable(o.err) {
				it.skips++
				t.noteSkip()
				continue
			}
			it.done = true
			b.Release()
			t.mu.Lock()
			t.stats.Errors++
			t.mu.Unlock()
			t.to.errors.Inc()
			return nil, o.err
		}
		b.Data = append(b.Data, o.data)
		b.Labels = append(b.Labels, o.label)
		b.Indices = append(b.Indices, o.index)
	}
	it.noteBatch(len(b.Indices))
	return b, nil
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

// endErr is what a drained epoch reports: nil normally, the quota error
// when the schedule was truncated.
func (it *Iterator) endErr() error {
	if it.quota != nil {
		return it.quota
	}
	return nil
}

// noteBatch accounts one delivered batch.
func (it *Iterator) noteBatch(samples int) {
	t := it.t
	t.mu.Lock()
	t.stats.Samples += int64(samples)
	t.stats.Batches++
	t.mu.Unlock()
	t.to.samples.Add(int64(samples))
	t.to.batches.Inc()
}

// Close aborts the epoch: the source stops feeding, queued deliveries are
// dropped and their tensors recycled, and both epoch goroutines are
// joined before Close returns, so a close mid-epoch leaks neither
// goroutines nor pooled memory. Idempotent.
func (it *Iterator) Close() {
	it.closeOnce.Do(func() { close(it.abort) })
	it.wg.Wait()
	pool := it.t.sd.pool
	for {
		select {
		case o, ok := <-it.ordered:
			if !ok {
				it.clearCur()
				return
			}
			pool.PutTensor(o.data)
		default:
			it.clearCur()
			return
		}
	}
}

// clearCur detaches this iterator from its tenant's live slot.
func (it *Iterator) clearCur() {
	t := it.t
	t.mu.Lock()
	if t.cur == it {
		t.cur = nil
	}
	t.mu.Unlock()
}
