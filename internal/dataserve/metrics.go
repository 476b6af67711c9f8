package dataserve

import (
	"math"

	"scipp/internal/obs"
	"scipp/internal/pipeline"
)

// Metric names. Service-wide:
//
//	dataserve.decode.count        samples decoded (single-flight owners)
//	dataserve.decode.dedup        first-touch serves that skipped a decode
//	dataserve.decode.errors       terminal decode failures
//	dataserve.retries             transient-fault retries by flight owners
//	dataserve.cache.hits          shared-cache hits
//	dataserve.cache.misses        shared-cache misses
//	dataserve.cache.quarantined   integrity quarantines on the shared cache
//	dataserve.cache.evictions     samples dropped by cache pressure
//	dataserve.dispatched          requests workers took off the fair queue
//	dataserve.bytes.served        payload bytes successfully served
//	dataserve.bytes.shed          known payload bytes of shed requests
//	dataserve.tenants             currently attached tenants (gauge)
//	dataserve.shed                requests shed past their admission deadline
//	dataserve.breaker.rejects     requests fast-failed by an open breaker
//	dataserve.poisoned            samples blacklisted service-wide
//	dataserve.poison.rejects      requests fast-failed off the blacklist
//	dataserve.detached.slow       tenants detached by the stall watchdog
//
// Per tenant (<t> is the tenant name):
//
//	dataserve.tenant.<t>.samples         samples delivered into batches
//	dataserve.tenant.<t>.batches         batches delivered
//	dataserve.tenant.<t>.bytes.served    payload bytes served to this tenant
//	dataserve.tenant.<t>.decodes         decodes this tenant performed
//	dataserve.tenant.<t>.dedup           first-touch serves without own decode
//	dataserve.tenant.<t>.hits.owned      cache hits on samples it decoded
//	dataserve.tenant.<t>.hits.borrowed   cache hits on another tenant's decode
//	dataserve.tenant.<t>.joins           single-flight joins
//	dataserve.tenant.<t>.retries         transient retries absorbed for it
//	dataserve.tenant.<t>.errors          terminal sample errors delivered
//	dataserve.tenant.<t>.queue_wait      dispatch-lag histogram
//	dataserve.tenant.<t>.queue_wait.max  dispatch-lag high-water gauge
//	dataserve.tenant.<t>.shed            requests shed past the deadline
//	dataserve.tenant.<t>.skips           bad samples skipped mid-epoch
//	dataserve.tenant.<t>.breaker.trips   transitions into the open state
//	dataserve.tenant.<t>.breaker.probes  half-open probes admitted
//	dataserve.tenant.<t>.breaker.rejects requests fast-failed while open
//	dataserve.tenant.<t>.breaker.state   0 closed / 1 open / 2 half-open
//	dataserve.tenant.<t>.detached.slow   stall-watchdog detaches
//
// Queue wait is measured in dispatch lag — how many requests the service
// dispatched between this request's enqueue and its own dispatch — not in
// wall seconds: lag is a deterministic function of the arrival and DRR
// order, so fairness tests can assert fixed bounds without timer slack.
//
// These instruments are the service's only ledger, and Stats is a typed
// view over them: ServiceStats and TenantStats hold no counts of their own.
// The instruments live in Config.Obs or, when that is nil, in a registry
// private to the service. The exceptions are the dataserve.cache.* outcome
// counters, which track the service's own lookups: ServiceStats reads its
// cache fields from each SampleCache, which keeps that ledger. A tenant's
// instruments are keyed by its name, so a name that detaches and attaches
// again continues its counts, as it continues its first-touch and
// ownership records.

// lagBounds are the queue-wait histogram bucket upper bounds, in dispatches.
var lagBounds = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// serviceObs bundles the service-wide instruments.
type serviceObs struct {
	decodeCount, decodeDedup, decodeErrors, retries *obs.Counter
	cacheHits, cacheMisses, cacheQuarantined        *obs.Counter
	cacheEvictions, dispatched                      *obs.Counter
	bytesServed, bytesShed                          *obs.Counter
	shed, breakerRejects                            *obs.Counter
	poisoned, poisonRejects, slowDetached           *obs.Counter
	tenants                                         *obs.Gauge
}

func newServiceObs(r *obs.Registry) serviceObs {
	return serviceObs{
		decodeCount:      r.Counter("dataserve.decode.count"),
		decodeDedup:      r.Counter("dataserve.decode.dedup"),
		decodeErrors:     r.Counter("dataserve.decode.errors"),
		retries:          r.Counter("dataserve.retries"),
		cacheHits:        r.Counter("dataserve.cache.hits"),
		cacheMisses:      r.Counter("dataserve.cache.misses"),
		cacheQuarantined: r.Counter("dataserve.cache.quarantined"),
		cacheEvictions:   r.Counter("dataserve.cache.evictions"),
		dispatched:       r.Counter("dataserve.dispatched"),
		bytesServed:      r.Counter("dataserve.bytes.served"),
		bytesShed:        r.Counter("dataserve.bytes.shed"),
		shed:             r.Counter("dataserve.shed"),
		breakerRejects:   r.Counter("dataserve.breaker.rejects"),
		poisoned:         r.Counter("dataserve.poisoned"),
		poisonRejects:    r.Counter("dataserve.poison.rejects"),
		slowDetached:     r.Counter("dataserve.detached.slow"),
		tenants:          r.Gauge("dataserve.tenants"),
	}
}

// tenantObs bundles one tenant's instruments, resolved once at Attach.
type tenantObs struct {
	samples, batches, decodes, dedup            *obs.Counter
	bytesServed                                 *obs.Counter
	hitsOwned, hitsBorrowed, joins              *obs.Counter
	retries, errors                             *obs.Counter
	shed, skips                                 *obs.Counter
	breakerTrips, breakerProbes, breakerRejects *obs.Counter
	slowDetached                                *obs.Counter
	queueWait                                   *obs.Histogram
	queueWaitMax, breakerState                  *obs.Gauge
}

func newTenantObs(r *obs.Registry, name string) tenantObs {
	p := "dataserve.tenant." + name + "."
	return tenantObs{
		samples:        r.Counter(p + "samples"),
		batches:        r.Counter(p + "batches"),
		bytesServed:    r.Counter(p + "bytes.served"),
		decodes:        r.Counter(p + "decodes"),
		dedup:          r.Counter(p + "dedup"),
		hitsOwned:      r.Counter(p + "hits.owned"),
		hitsBorrowed:   r.Counter(p + "hits.borrowed"),
		joins:          r.Counter(p + "joins"),
		retries:        r.Counter(p + "retries"),
		errors:         r.Counter(p + "errors"),
		shed:           r.Counter(p + "shed"),
		skips:          r.Counter(p + "skips"),
		breakerTrips:   r.Counter(p + "breaker.trips"),
		breakerProbes:  r.Counter(p + "breaker.probes"),
		breakerRejects: r.Counter(p + "breaker.rejects"),
		slowDetached:   r.Counter(p + "detached.slow"),
		queueWait:      r.Histogram(p+"queue_wait", lagBounds),
		queueWaitMax:   r.Gauge(p + "queue_wait.max"),
		breakerState:   r.Gauge(p + "breaker.state"),
	}
}

// ServiceStats is a point-in-time view of the service's instruments: the
// shared-path accounting summed over its registered datasets.
type ServiceStats struct {
	// Decodes counts samples decoded (single-flight owners, including any
	// re-decode after a cache quarantine or eviction); Dedup counts
	// first-touch accesses a tenant was served without decoding itself —
	// the work sharing saved. With K tenants over S fully cached samples,
	// Decodes == S and Dedup == (K-1)*S.
	Decodes, Dedup int64
	// CacheHits/CacheMisses/CacheQuarantined aggregate the shared caches'
	// Get outcomes, read from each cache's own ledger, and Retries the
	// transient-fault retries absorbed by flight owners (reconciles against
	// an injector log).
	CacheHits, CacheMisses, CacheQuarantined, Retries int64
	// Dispatched counts requests workers took off the fair queue.
	Dispatched int64
	// Shed counts requests dropped past their admission deadline, and
	// BreakerRejects the requests fast-failed by open tenant breakers —
	// neither ever consumed a decode worker.
	Shed, BreakerRejects int64
	// ServedBytes totals the payload bytes (the decoded sample's raw
	// element bytes, with no header, plus its label's) successfully served
	// across all tenants — the byte-weighted DRR pick's cost basis, so it
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

// Stats reads the service's accounting off its instruments, and the cache
// fields off the shared caches.
func (s *Service) Stats() ServiceStats {
	o := &s.ob
	st := ServiceStats{
		Decodes:        o.decodeCount.Value(),
		Dedup:          o.decodeDedup.Value(),
		Retries:        o.retries.Value(),
		Dispatched:     o.dispatched.Value(),
		Shed:           o.shed.Value(),
		BreakerRejects: o.breakerRejects.Value(),
		ServedBytes:    o.bytesServed.Value(),
		ShedBytes:      o.bytesShed.Value(),
		Poisoned:       o.poisoned.Value(),
		PoisonRejects:  o.poisonRejects.Value(),
		SlowDetaches:   o.slowDetached.Value(),
		Tenants:        int(o.tenants.Value()),
	}
	s.mu.Lock()
	caches := make([]*pipeline.SampleCache, 0, len(s.datasets))
	for _, sd := range s.datasets {
		caches = append(caches, sd.cache)
	}
	s.mu.Unlock()
	for _, c := range caches {
		cs := c.Stats()
		st.CacheHits += cs.Hits
		st.CacheMisses += cs.Misses
		st.CacheQuarantined += cs.Quarantined
	}
	return st
}

// TenantStats is a point-in-time view of one tenant's instruments. They are
// keyed by the tenant's name, so every count is cumulative over all
// attachments of that name: attaching a name again continues its counts
// rather than starting them from zero.
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
	// Shed counts requests dropped past their admission deadline; Skips
	// the bad samples an epoch survived under MaxBadSamples.
	Shed, Skips int64
	// BytesServed totals the payload bytes (the decoded sample's raw
	// element bytes, with no header, plus its label's) successfully served
	// to this tenant — the byte-weighted DRR pick's cost basis. Σ over
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
	// A p99 past the last bucket reads as that bound plus one.
	QueueWaitMax, QueueWaitP99 int64
}

// Stats reads the tenant's accounting off its instruments. It takes no
// tenant or service lock.
func (t *Tenant) Stats() TenantStats {
	o := &t.to
	p99 := o.queueWait.Quantile(0.99)
	if math.IsInf(p99, 1) {
		p99 = lagBounds[len(lagBounds)-1] + 1
	}
	return TenantStats{
		Samples:        o.samples.Value(),
		Batches:        o.batches.Value(),
		Decodes:        o.decodes.Value(),
		Dedup:          o.dedup.Value(),
		HitsOwned:      o.hitsOwned.Value(),
		HitsBorrowed:   o.hitsBorrowed.Value(),
		Joins:          o.joins.Value(),
		Retries:        o.retries.Value(),
		Errors:         o.errors.Value(),
		Shed:           o.shed.Value(),
		Skips:          o.skips.Value(),
		BytesServed:    o.bytesServed.Value(),
		BreakerTrips:   o.breakerTrips.Value(),
		BreakerProbes:  o.breakerProbes.Value(),
		BreakerRejects: o.breakerRejects.Value(),
		SlowDetached:   o.slowDetached.Value(),
		QueueWaitMax:   int64(o.queueWaitMax.Max()),
		QueueWaitP99:   int64(p99),
	}
}

// noteCacheGet records one shared-cache lookup outcome.
func (s *Service) noteCacheGet(hit, quarantined bool) {
	if hit {
		s.ob.cacheHits.Inc()
		return
	}
	s.ob.cacheMisses.Inc()
	if quarantined {
		s.ob.cacheQuarantined.Inc()
	}
}
