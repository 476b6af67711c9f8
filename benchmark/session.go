package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"scipp/internal/codec"
	"scipp/internal/dataserve"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
)

// segments is how many equal stretches a timed phase is cut into. Rates
// are reported as the median over the stretches, so one noisy stretch
// (another process on the box, a stray GC) does not move the result.
const segments = 10

// session is one constructed system under test together with the
// closed-loop consumers that drive it: one consumer for a loader, one per
// tenant for the service. Each consumer asks for its next batch only after
// it has checked and released the previous one.
type session struct {
	w     spec
	seed  uint64
	data  *dataset
	ref   *reference
	tr    *tracer // nil in an untraced session
	rig   *rig
	setup setupTimes

	consumers []*consumer
	base      time.Time

	// Timed-phase state. timing is set before the consumers start;
	// snapshots are taken by consumer 0 only, at its own batch boundaries,
	// so that no delivered batch straddles a segment edge.
	timing    bool
	snapEvery int64
	nextSnap  int64
	snaps     []snapshot
	delivered atomic.Int64
	stop      atomic.Bool
	endCount  map[string]float64
	memEnd    runtime.MemStats
}

// setupTimes splits set-up the way the per-layer metrics report it.
type setupTimes struct{ buildS, constructS, warmupS float64 }

func (t setupTimes) total() float64 { return t.buildS + t.constructS + t.warmupS }

// snapshot is the process state at one segment edge.
type snapshot struct {
	t          int64 // nanoseconds since session base
	cpuS       float64
	delivered  int64
	goroutines int
}

// acct is what one consumer measured during the timed phase.
type acct struct {
	waits                               []int64 // per-batch Next wait, ns
	samples, epochs                     int64
	waitNs, checkNs, releaseNs, epochNs int64
	retries, skipped                    int64
	requested, failed                   int64 // all phases, for verification
	// digest folds, in delivery order, the digest of every sample that
	// passed a full check.
	digest uint64
}

type consumer struct {
	s      *session
	id     int
	tenant *dataserve.Tenant // nil for the loader's consumer
	epoch  int
	a      acct
}

// epochIter is what pipeline.Iterator and dataserve.Iterator share.
type epochIter interface {
	Next() (*pipeline.Batch, error)
	Close()
}

// batchView is a delivered batch in either form.
type batchView struct {
	b  *pipeline.Batch
	pb *pipeline.PaddedBatch
}

func (v batchView) empty() bool { return v.b == nil && v.pb == nil }

func (v batchView) indices() []int {
	if v.pb != nil {
		return v.pb.Indices
	}
	return v.b.Indices
}

func (v batchView) release() {
	if v.pb != nil {
		v.pb.Release()
		return
	}
	v.b.Release()
}

// newSession performs one full set-up: prepare, then start.
func newSession(w spec, seed uint64, ref *reference, traced bool) (*session, error) {
	s, err := prepare(w, seed, ref)
	if err != nil {
		return nil, err
	}
	return s, s.start(traced)
}

// prepare is the first half of a set-up: generate and encode the dataset.
// ref is the reference from an earlier set-up of the same workload and
// seed, or nil to decode one now (untimed: the reference is the harness's
// work, not the program's).
func prepare(w spec, seed uint64, ref *reference) (*session, error) {
	s := &session{w: w, seed: seed, base: time.Now()}

	t0 := time.Now()
	data, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	s.data = data
	s.setup.buildS = time.Since(t0).Seconds()

	if ref == nil {
		if ref, err = buildReference(data.mem, data.format); err != nil {
			return nil, err
		}
	}
	s.ref = ref
	return s, nil
}

// start is the second half of a set-up: construct the loader or service
// and run warm-up epoch 0 (cache fill, pool fill, lazy initialisation) with
// every delivered sample fully verified.
func (s *session) start(traced bool) error {
	w, data, ref := s.w, s.data, s.ref
	var (
		err    error
		source pipeline.Dataset = data.mem
		format codec.Format     = data.format
		reg    *obs.Registry
	)
	if traced {
		s.tr = newTracer(data.mem, s.base)
		source = &tracedDataset{inner: data.mem, tr: s.tr}
		if format, err = wrapFormat(data.format, s.tr); err != nil {
			return err
		}
		reg = obs.NewRegistry()
	}

	t0 := time.Now()
	unit := int64(data.mem.EncodedBytes()) + ref.labelBytes
	if w.tenants > 0 {
		// The service caches serialized decoded tensors: payload plus a
		// small header each.
		unit = ref.decodedBytes + ref.labelBytes + 64*int64(w.samples)
	}
	if s.rig, err = w.construct(source, format, unit, s.seed, reg); err != nil {
		return err
	}
	s.setup.constructS = time.Since(t0).Seconds()

	n := max(w.tenants, 1)
	for c := 0; c < n; c++ {
		cons := &consumer{s: s, id: c}
		if w.tenants > 0 {
			cons.tenant = s.rig.tenants[c]
		}
		s.consumers = append(s.consumers, cons)
	}

	t0 = time.Now()
	if err := s.eachConsumer(func(c *consumer) error { return c.runEpoch(0, true) }); err != nil {
		s.close()
		return fmt.Errorf("warm-up: %w", err)
	}
	s.setup.warmupS = time.Since(t0).Seconds()
	return nil
}

func (s *session) close() {
	if s.rig != nil {
		s.rig.close()
	}
}

func (s *session) now() int64 { return int64(time.Since(s.base)) }

// eachConsumer runs f on every consumer concurrently and waits for all.
func (s *session) eachConsumer(f func(*consumer) error) error {
	errs := make([]error, len(s.consumers))
	var wg sync.WaitGroup
	for i, c := range s.consumers {
		wg.Add(1)
		go func(i int, c *consumer) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (c *consumer) schedule(epoch int) []int {
	if c.tenant != nil {
		// The tenant contract: the same per-epoch derivation as a private
		// loader configured with this seed.
		return (&pipeline.ShuffledSource{N: c.s.data.mem.Len(), Seed: shuffleSeed(c.s.seed, c.id)}).Order(epoch)
	}
	return c.s.rig.loader.Schedule(epoch)
}

func (c *consumer) open(epoch int) (epochIter, error) {
	if c.tenant != nil {
		it := c.tenant.Epoch(epoch)
		if it == nil {
			return nil, errors.New("tenant detached")
		}
		return it, nil
	}
	return c.s.rig.loader.Epoch(epoch), nil
}

func (c *consumer) next(it epochIter) (batchView, error) {
	if c.s.w.padded {
		pb, err := it.(*pipeline.Iterator).NextPadded()
		return batchView{pb: pb}, err
	}
	b, err := it.Next()
	return batchView{b: b}, err
}

// runEpoch drains one epoch: every batch is checked for schedule order and
// content (full digest when full, strided probe otherwise) and released
// before the next is requested.
func (c *consumer) runEpoch(epoch int, full bool) error {
	s, a, tr := c.s, &c.a, c.s.tr
	order := c.schedule(epoch)
	a.requested += int64(len(order))

	var epochID int64
	if tr != nil {
		epochID = tr.begin()
		if len(s.consumers) == 1 {
			tr.epoch.Store(epochID)
		}
	}
	t0 := s.now()
	it, err := c.open(epoch)
	if err != nil {
		return err
	}
	defer it.Close()
	t1 := s.now()
	if tr != nil {
		tr.record(bEpochStart, epochID, -1, t0, t1)
	}

	pos, good := 0, 0
	for {
		w0 := s.now()
		v, err := c.next(it)
		w1 := s.now()
		if err != nil {
			return fmt.Errorf("consumer %d epoch %d: %w", c.id, epoch, err)
		}
		if v.empty() {
			break
		}
		idx := v.indices()
		for i, index := range idx {
			if pos+i >= len(order) || order[pos+i] != index {
				continue
			}
			if v.pb != nil && s.ref.checkPadded(index, v.pb, i, full) || v.b != nil && s.ref.checkSample(index, v.b.Data[i], full) {
				good++
				if full {
					a.digest = (a.digest ^ s.ref.digest[index]) * fnvPrime
				}
			}
		}
		pos += len(idx)
		r0 := s.now()
		v.release()
		r1 := s.now()
		if tr != nil {
			tr.record(bNext, epochID, -1, w0, w1)
			tr.record(bRelease, epochID, -1, r0, r1)
		}
		if s.timing && !s.stop.Load() {
			a.waits = append(a.waits, w1-w0)
			a.samples += int64(len(idx))
			a.waitNs += w1 - w0
			a.checkNs += r0 - w1
			a.releaseNs += r1 - r0
			s.delivered.Add(int64(len(idx)))
			if c.id == 0 && r1 >= s.nextSnap {
				s.snapshot(r1)
			}
		}
	}
	if tr != nil {
		end := s.now()
		tr.finish(epochID, bEpoch, 0, -1, t0, end, end-t0)
	}
	if s.timing && !s.stop.Load() {
		a.epochs++
		a.epochNs += t1 - t0
		if pit, ok := it.(*pipeline.Iterator); ok {
			st := pit.Stats()
			a.retries += int64(st.Retried)
			a.skipped += int64(st.Skipped)
		}
	}
	a.failed += int64(len(order) - good)
	return nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// snapshot records a segment edge at time t. The last one ends the timed
// phase: it captures the end-of-phase ledgers at that same instant and
// tells every consumer to finish its current epoch and stop.
func (s *session) snapshot(t int64) {
	s.snaps = append(s.snaps, snapshot{
		t:          t,
		cpuS:       cpuSeconds(),
		delivered:  s.delivered.Load(),
		goroutines: runtime.NumGoroutine(),
	})
	s.nextSnap += s.snapEvery
	if len(s.snaps) == segments+1 {
		runtime.ReadMemStats(&s.memEnd)
		s.endCount = s.counters()
		s.stop.Store(true)
	}
}

// phase is everything one timed phase measured.
type phase struct {
	snaps            []snapshot
	startCount       map[string]float64
	endCount         map[string]float64
	memStart, memEnd runtime.MemStats
	a                acct // summed over consumers
	perConsumer      []int64
}

// timed runs whole epochs on every consumer for about seconds seconds and
// returns what was measured between the first and the last segment edge.
// Consumers finish the epoch they are in when the last edge passes, so the
// loader or service is left between epochs.
func (s *session) timed(seconds float64) (*phase, error) {
	for _, c := range s.consumers {
		// Room for every wait the phase can record, so that recording them
		// is not itself an allocation the phase counts.
		c.a.waits = make([]int64, 0, 1<<18)
	}
	p := &phase{}
	runtime.GC()
	p.startCount = s.counters()
	s.snaps = make([]snapshot, 0, segments+1)
	s.snapEvery = int64(seconds * 1e9 / segments)
	s.delivered.Store(0)
	s.stop.Store(false)
	s.timing = true
	runtime.ReadMemStats(&p.memStart)
	start := s.now()
	s.nextSnap = start
	s.snapshot(start)

	err := s.eachConsumer(func(c *consumer) error {
		for !s.stop.Load() {
			c.epoch++
			if err := c.runEpoch(c.epoch, false); err != nil {
				s.stop.Store(true)
				return err
			}
		}
		return nil
	})
	s.timing = false
	if err != nil {
		return nil, err
	}
	p.snaps, p.endCount, p.memEnd = s.snaps, s.endCount, s.memEnd
	for _, c := range s.consumers {
		a := &c.a
		p.perConsumer = append(p.perConsumer, a.samples)
		p.a.waits = append(p.a.waits, a.waits...)
		p.a.samples += a.samples
		p.a.epochs += a.epochs
		p.a.waitNs += a.waitNs
		p.a.checkNs += a.checkNs
		p.a.releaseNs += a.releaseNs
		p.a.epochNs += a.epochNs
		p.a.retries += a.retries
		p.a.skipped += a.skipped
		// Reset the timed tallies; the verification totals run on.
		c.a = acct{requested: a.requested, failed: a.failed, digest: a.digest}
	}
	return p, nil
}

// finalEpoch is the epoch number of the post-run check: one no timed phase
// reaches, so that its schedule, and with it the run digest, is the same
// however many epochs the timed phase got through.
const finalEpoch = 1 << 20

// finalCheck runs one more untimed epoch with every sample fully verified.
func (s *session) finalCheck() error {
	return s.eachConsumer(func(c *consumer) error { return c.runEpoch(finalEpoch, true) })
}

// verdict totals the verification ledger over every phase so far, and
// folds the consumers' digests of everything that was fully checked.
func (s *session) verdict() (attempted, failed int64, digest uint64) {
	for _, c := range s.consumers {
		attempted += c.a.requested
		failed += c.a.failed
		digest = (digest ^ c.a.digest) * fnvPrime
	}
	return attempted, failed, digest
}

// counters reads every cumulative ledger the program exposes, plus the
// tracer's, into one flat map; per-layer metrics are differences of two
// such reads.
func (s *session) counters() map[string]float64 {
	m := make(map[string]float64, 64)
	if c := s.rig.cache(); c != nil {
		cs := c.Stats()
		m["cache.hits"] = float64(cs.Hits)
		m["cache.misses"] = float64(cs.Misses)
		m["cache.evictions"] = float64(cs.Evictions)
		m["cache.demotions"] = float64(cs.Demotions)
		m["cache.quarantined"] = float64(cs.Quarantined)
		m["cache.resident_bytes"] = float64(cs.HostBytes + cs.NVMeBytes)
	}
	ps := s.rig.pool().Stats()
	m["pool.gets"] = float64(ps.Gets)
	m["pool.hits"] = float64(ps.Hits)
	if svc := s.rig.svc; svc != nil {
		st := svc.Stats()
		m["svc.dispatched"] = float64(st.Dispatched)
		m["svc.decodes"] = float64(st.Decodes)
		m["svc.dedup"] = float64(st.Dedup)
		m["svc.cache_hits"] = float64(st.CacheHits)
		m["svc.cache_misses"] = float64(st.CacheMisses)
		m["svc.served_bytes"] = float64(st.ServedBytes)
		m["svc.retries"] = float64(st.Retries)
		m["svc.shed"] = float64(st.Shed)
		for _, t := range s.rig.tenants {
			ts := t.Stats()
			m["svc.joins"] += float64(ts.Joins)
			m["svc.lag_p99"] = max(m["svc.lag_p99"], float64(ts.QueueWaitP99))
		}
	}
	if reg := s.rig.reg; reg != nil {
		snap := reg.Snapshot()
		for _, name := range []string{"pipeline.read", "pipeline.decode.cpu", "pipeline.decode.gpu", "pipeline.prefetch_wait"} {
			if h, ok := snap.Histogram(name + ".seconds"); ok {
				m["obs."+name] = h.Sum
			}
		}
		m["obs.queue_depth_max"] = snap.Gauge("pipeline.queue_depth").Max
	}
	if tr := s.tr; tr != nil {
		for b := boundary(0); b < numBoundaries; b++ {
			m["trace."+boundaryNames[b]+".count"] = float64(tr.count[b].Load())
			m["trace."+boundaryNames[b]+".busy_s"] = float64(tr.busy[b].Load()) / 1e9
		}
		m["trace.chunks"] = float64(tr.chunks.Load())
		m["trace.bytes_in"] = float64(tr.bytesIn.Load())
		m["trace.bytes_out"] = float64(tr.bytesOut.Load())
		m["trace.codec_errors"] = float64(tr.codecErrors.Load())
		m["trace.read_bytes"] = float64(tr.readBytes.Load())
	}
	return m
}
