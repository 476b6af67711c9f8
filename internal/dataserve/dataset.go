package dataserve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"scipp/internal/codec"
	"scipp/internal/fault"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// DatasetConfig registers one shared dataset with the service. The cache
// key of the issue — (dataset, codec, sample) — is realized as
// Name -> shared SampleCache -> sample index: one registration binds a
// dataset to exactly one codec, and every tenant attached to it shares the
// one decoded-sample cache.
type DatasetConfig struct {
	// Name is the registration key tenants attach by; required, unique.
	Name string
	// Data is the backing dataset (possibly a fault injector). Required.
	Data pipeline.Dataset
	// Format decodes Data's blobs. Required.
	Format codec.Format
	// Cache sizes the shared decoded-sample cache. A resident is the
	// decoded tensor's raw element bytes (plus its label), with no header,
	// so size tiers for exactly the decoded bytes, not encoded bytes.
	// Integrity checksums and quarantine semantics are the SampleCache's
	// own.
	Cache pipeline.CacheConfig
	// MaxRetries bounds the flight owner's re-reads of a sample that fails
	// with a fault.Transient error before the failure is delivered to
	// every waiting tenant. Default 0: strict.
	MaxRetries int
	// PoisonK, when positive, arms the cross-tenant poison quarantine: a
	// sample whose decode fails for PoisonK distinct tenants (owners or
	// flight joiners) is blacklisted service-wide, and later requests
	// fast-fail with a *PoisonError before touching cache or workers —
	// every tenant pays the poison cost at most PoisonK times total.
	PoisonK int
}

// flight is one in-progress decode that concurrent requests for the same
// sample share: the owner decodes, everyone else blocks on done and copies
// the sealed resident's raw element bytes.
//
// A flight no request joined costs nothing beyond itself: done is made by
// the first joiner, under sd.mu, and a flight whose done is still nil when
// it leaves the table goes back to sd.spare for the next miss. A joined
// flight pins its resident for its joiners: holders counts the owner and
// every joiner not yet done with res, and whichever of them brings it to
// zero releases the pin. The owner's count keeps res unreleased until it
// has published res.
type flight struct {
	done    chan struct{}
	holders atomic.Int32
	res     *pipeline.Resident
	label   *tensor.Tensor
	err     error
}

// sharedDataset is a registered dataset plus the shared decode machinery
// layered over it: the decoded-sample cache, the single-flight table, and
// the ownership/first-touch maps that make dedup accounting deterministic.
type sharedDataset struct {
	name       string
	svc        *Service
	ds         pipeline.Dataset
	format     codec.Format
	cache      *pipeline.SampleCache
	pool       *pipeline.SlabPool
	maxRetries int
	poisonK    int

	// mu orders the miss/flight/admission races: it may take cache.mu
	// inside it, never the reverse. A cache hit takes it only after the
	// Get, for the owner/first-touch bookkeeping.
	mu          sync.Mutex
	flights     map[int]*flight
	spare       []*flight                   // flights no request joined, for reuse
	owner       map[int]string              // sample -> tenant whose flight decoded it
	touched     map[string]map[int]struct{} // tenant -> samples it has been served
	poisonVotes map[int]map[string]struct{} // sample -> tenants whose serve failed
	poisoned    map[int]struct{}            // the service-wide blacklist

	// learned holds one record per sample index, filled in by the sample's
	// first admitted decode (see sampleRecord).
	learned []sampleRecord
}

// sampleRecord is what the service learns about a sample from its first
// successful decode. A resident is only the raw element bytes, so a hit
// needs the record's dtype and shape to draw its destination tensor, and
// the byte ledger counts its payload size. Decode is
// deterministic, so a record is written once, under sd.mu and before the
// cache Put that admits the sample, and then only read: a hit reads it
// after its Get (ordered after the Put by the cache mutex), a flight joiner
// after f.done, and the shed pass after known's load. known is its own
// flag because a payload can be 0 bytes (an empty ragged sample with no
// label).
type sampleRecord struct {
	known   atomic.Bool
	dt      tensor.DType
	shape   tensor.Shape
	data    int   // the decoded tensor's raw bytes: a resident's length
	payload int64 // data plus label bytes: what a serve ships
}

func newSharedDataset(s *Service, cfg DatasetConfig) (*sharedDataset, error) {
	if cfg.Name == "" || cfg.Data == nil || cfg.Format == nil {
		return nil, fmt.Errorf("dataserve: dataset registration needs Name, Data and Format")
	}
	return &sharedDataset{
		name:        cfg.Name,
		svc:         s,
		ds:          cfg.Data,
		format:      cfg.Format,
		cache:       pipeline.NewSampleCache(cfg.Cache),
		pool:        pipeline.NewSlabPool(),
		maxRetries:  cfg.MaxRetries,
		poisonK:     cfg.PoisonK,
		flights:     make(map[int]*flight),
		owner:       make(map[int]string),
		touched:     make(map[string]map[int]struct{}),
		poisonVotes: make(map[int]map[string]struct{}),
		poisoned:    make(map[int]struct{}),
		learned:     make([]sampleRecord, cfg.Data.Len()),
	}, nil
}

// learnLocked fills in sample index's record from a successful decode, if
// this is the sample's first. Callers hold sd.mu and call it before the
// cache Link that admits the sample.
func (sd *sharedDataset) learnLocked(index int, data, label *tensor.Tensor) {
	rec := &sd.learned[index]
	if rec.known.Load() {
		return
	}
	rec.dt, rec.shape, rec.data = data.DT, data.Shape.Clone(), data.Bytes()
	rec.payload = int64(rec.data)
	if label != nil {
		rec.payload += int64(label.Bytes())
	}
	rec.known.Store(true)
}

// sampleSize reports the learned payload size of a sample, if it has ever
// been decoded.
func (sd *sharedDataset) sampleSize(index int) (int, bool) {
	rec := &sd.learned[index]
	if !rec.known.Load() {
		return 0, false
	}
	return int(rec.payload), true
}

// fetch serves one sample to one tenant through the shared path: cache hit,
// single-flight join, or owned decode. The returned data tensor is always
// the caller's own pooled copy — tenants never alias cache or flight
// memory, so one tenant releasing a batch can never free another's bytes.
//
// The cache Get runs outside sd.mu, so concurrent hits verify their
// checksums in parallel. The miss path keeps single-flight exact by
// re-probing residency under sd.mu before claiming the flight: admission
// happens under sd.mu before a flight is removed, so "not resident and no
// flight" under the lock means the sample is truly absent, and a decode
// count never depends on scheduling. The owner seals its decode into a
// cache slab before taking sd.mu, so the lock covers only the link.
func (sd *sharedDataset) fetch(it *Iterator, index int) (*tensor.Tensor, *tensor.Tensor, error) {
	t := it.t
	// Blacklist path: a sample that already failed K distinct tenants is
	// refused before it can touch the cache or burn a decode.
	if sd.poisonK > 0 {
		sd.mu.Lock()
		_, bad := sd.poisoned[index]
		sd.mu.Unlock()
		if bad {
			sd.svc.ob.poisonRejects.Inc()
			return nil, nil, &PoisonError{Dataset: sd.name, Tenant: t.name, Index: index, Tenants: sd.poisonK}
		}
	}
	rec := &sd.learned[index]
	for {
		// Hit path: the shared cache verifies integrity after releasing its
		// own lock; a quarantined resident reports a miss and re-decodes.
		if rec.known.Load() {
			data, label, hit, quarantined, err := sd.hitInto(rec, index)
			sd.svc.noteCacheGet(hit, quarantined)
			if hit {
				sd.noteHit(t, index)
				return data, label, err
			}
		} else {
			enc, label, hit, quarantined := sd.cache.Get(index)
			sd.svc.noteCacheGet(hit, quarantined)
			if hit && rec.known.Load() {
				// A flight learned the record between the check above
				// and the Get.
				sd.noteHit(t, index)
				data, err := sd.materialize(rec, enc)
				return data, label, err
			}
		}
		sd.mu.Lock()
		if f, ok := sd.flights[index]; ok {
			if f.done == nil {
				f.done = make(chan struct{})
			}
			f.holders.Add(1)
			done := f.done
			sd.mu.Unlock()
			return sd.join(it, f, done, index)
		}
		if !sd.cache.Resident(index) || !rec.known.Load() {
			// Truly absent, or admitted around the service (a direct Put)
			// with nothing learned to serve it by: this request decodes,
			// still holding sd.mu.
			break
		}
		// A flight admitted the sample between the Get and the lock.
		sd.mu.Unlock()
	}
	// Owner path: this request decodes for everyone.
	f := sd.newFlightLocked()
	sd.flights[index] = f
	sd.mu.Unlock()

	data, res, label, retries, err := sd.decode(index)
	sd.mu.Lock()
	if err == nil {
		// Learn, then admit, before the flight disappears: a request that
		// misses both the cache and the flight table must mean the sample
		// is truly absent, or the decode count would depend on scheduling.
		sd.learnLocked(index, data, label)
		if dropped := sd.cache.Link(res); dropped > 0 {
			sd.svc.ob.cacheEvictions.Add(int64(dropped))
		}
		sd.owner[index] = t.name
		sd.firstTouchLocked(t.name, index)
		sd.svc.ob.decodeCount.Inc()
		t.to.decodes.Inc()
	} else {
		sd.svc.ob.decodeErrors.Inc()
		sd.poisonVoteLocked(t.name, index)
	}
	sd.svc.ob.retries.Add(int64(retries))
	t.to.retries.Add(int64(retries))
	delete(sd.flights, index)
	// Out of the table, the flight gains no joiner: one with no done
	// channel had none, and is spare again.
	joined := f.done != nil
	if !joined {
		sd.spare = append(sd.spare, f)
	}
	sd.mu.Unlock()
	if joined {
		f.res, f.label, f.err = res, label, err
		close(f.done)
		sd.unhold(f)
	} else if res != nil {
		sd.cache.Release(res)
	}
	if err != nil {
		return nil, nil, &SampleError{Dataset: sd.name, Tenant: t.name, Index: index, Err: err}
	}
	return data, label, nil
}

// hitInto serves sample index from the shared cache into a tensor it draws
// for the learned record rec, so the cache verifies the resident and copies
// it out in one pass. A miss hands the tensor back to the pool, and so does
// a hit on a resident the record's sample does not fit, which reports the
// misfit as err.
//
//scipp:hotpath
func (sd *sharedDataset) hitInto(rec *sampleRecord, index int) (data, label *tensor.Tensor, hit, quarantined bool, err error) {
	data = sd.pool.GetTensor(rec.dt, rec.shape)
	enc, label, hit, quarantined := sd.cache.GetInto(index, tensor.RawBytes(data))
	if hit && len(enc) == rec.data {
		return data, label, true, false, nil
	}
	sd.pool.PutTensor(data)
	if hit {
		return nil, nil, true, false, rec.misfit(len(enc))
	}
	return nil, nil, false, quarantined, nil
}

// noteHit is a cache hit's bookkeeping: tenant t's first touch of sample
// index, and its owned or borrowed hit.
func (sd *sharedDataset) noteHit(t *Tenant, index int) {
	sd.mu.Lock()
	owned := sd.owner[index] == t.name
	sd.dedupLocked(t, index)
	sd.mu.Unlock()
	if owned {
		t.to.hitsOwned.Inc()
	} else {
		t.to.hitsBorrowed.Inc()
	}
}

// newFlightLocked returns a flight for a new owner, a spare one when it
// can: owner held, no joiner, nothing published. Callers hold sd.mu.
func (sd *sharedDataset) newFlightLocked() *flight {
	var f *flight
	if n := len(sd.spare); n > 0 {
		f = sd.spare[n-1]
		sd.spare[n-1] = nil
		sd.spare = sd.spare[:n-1]
	} else {
		f = &flight{}
	}
	f.holders.Store(1)
	return f
}

// unhold drops one holder of flight f, releasing its resident's pin if that
// was the last.
func (sd *sharedDataset) unhold(f *flight) {
	if f.holders.Add(-1) == 0 && f.res != nil {
		sd.cache.Release(f.res)
	}
}

// join waits out another request's decode of sample index, signalled on
// done, and serves its result. The caller counted itself among f's holders
// under sd.mu.
func (sd *sharedDataset) join(it *Iterator, f *flight, done chan struct{}, index int) (*tensor.Tensor, *tensor.Tensor, error) {
	t := it.t
	select {
	case <-done:
	case <-it.abort:
		sd.unhold(f)
		return nil, nil, errDetached
	case <-sd.svc.abort:
		sd.unhold(f)
		return nil, nil, errClosed
	}
	defer sd.unhold(f)
	if f.err != nil {
		sd.mu.Lock()
		sd.poisonVoteLocked(t.name, index)
		sd.mu.Unlock()
		return nil, nil, &SampleError{Dataset: sd.name, Tenant: t.name, Index: index, Err: f.err}
	}
	sd.mu.Lock()
	sd.dedupLocked(t, index)
	sd.mu.Unlock()
	t.to.joins.Inc()
	// The record was learned before the owner closed f.done, and f's
	// resident stays pinned until this copy is done.
	data, err := sd.materialize(&sd.learned[index], f.res.Bytes())
	return data, f.label, err
}

// poisonVoteLocked records that tenant's serve of sample index failed
// terminally; the PoisonK-th distinct tenant's vote blacklists the sample
// service-wide. Callers hold sd.mu.
func (sd *sharedDataset) poisonVoteLocked(tenant string, index int) {
	if sd.poisonK <= 0 {
		return
	}
	if _, done := sd.poisoned[index]; done {
		return
	}
	votes := sd.poisonVotes[index]
	if votes == nil {
		votes = make(map[string]struct{})
		sd.poisonVotes[index] = votes
	}
	votes[tenant] = struct{}{}
	if len(votes) >= sd.poisonK {
		sd.poisoned[index] = struct{}{}
		delete(sd.poisonVotes, index)
		sd.svc.ob.poisoned.Inc()
	}
}

// dedupLocked records a serve of sample index that tenant t did not decode
// itself; on t's first touch of the sample it counts the decode sharing
// saved. Callers hold sd.mu.
func (sd *sharedDataset) dedupLocked(t *Tenant, index int) {
	if sd.firstTouchLocked(t.name, index) {
		sd.svc.ob.decodeDedup.Inc()
		t.to.dedup.Inc()
	}
}

// firstTouchLocked records that tenant has now been served sample index and
// reports whether this was its first time. Callers hold sd.mu.
func (sd *sharedDataset) firstTouchLocked(tenant string, index int) bool {
	m := sd.touched[tenant]
	if m == nil {
		m = make(map[int]struct{})
		sd.touched[tenant] = m
	}
	if _, ok := m[index]; ok {
		return false
	}
	m[index] = struct{}{}
	return true
}

// decode is the flight owner's work: read, open, chunk-decode into a pooled
// tensor, seal its raw element bytes into a cache resident.
// Transient faults retry the whole read up to maxRetries, mirroring the
// pipeline's resilience re-decode, so an injector's transient log entries
// reconcile one-to-one with retries.
func (sd *sharedDataset) decode(index int) (data *tensor.Tensor, res *pipeline.Resident, label *tensor.Tensor, retries int, err error) {
	for attempt := 0; ; attempt++ {
		data, res, label, err = sd.decodeOnce(index)
		if err == nil || attempt >= sd.maxRetries || !errors.Is(err, fault.Transient) {
			return data, res, label, attempt, err
		}
	}
}

// decodeOnce is one decode attempt, bit-identical to the pipeline's
// DecodeStage CPU placement: same Open, same pooled destination, same
// deterministic chunk decomposition. The decoded bytes are sealed before
// the owner takes sd.mu: the copy into a recycled cache slab and both
// checksums are one pass, and the lock then covers only the link.
func (sd *sharedDataset) decodeOnce(index int) (*tensor.Tensor, *pipeline.Resident, *tensor.Tensor, error) {
	blob, err := sd.ds.Blob(index)
	if err != nil {
		return nil, nil, nil, err
	}
	label, err := sd.ds.Label(index)
	if err != nil {
		return nil, nil, nil, err
	}
	cd, err := sd.format.Open(blob)
	if err != nil {
		return nil, nil, nil, err
	}
	dst := sd.pool.GetTensor(cd.OutputDType(), cd.OutputShape())
	err = codec.DecodeInto(cd, dst)
	codec.Recycle(cd)
	if err != nil {
		sd.pool.PutTensor(dst)
		return nil, nil, nil, err
	}
	// The resident is the owner's tensor's bytes, sealed into the cache's
	// memory: the owner's tensor goes to its own tenant.
	return dst, sd.cache.Seal(index, tensor.RawBytes(dst), label), label, nil
}

// materialize copies a flight's (or a resident's) raw element bytes into
// the caller's own pooled tensor, shaped by the sample's learned record:
// one pool draw and one memmove. A resident whose length disagrees with the
// record was admitted around the service and is refused, not half-copied.
//
//scipp:hotpath
func (sd *sharedDataset) materialize(rec *sampleRecord, enc []byte) (*tensor.Tensor, error) {
	if len(enc) != rec.data {
		return nil, rec.misfit(len(enc))
	}
	dst := sd.pool.GetTensor(rec.dt, rec.shape)
	copy(tensor.RawBytes(dst), enc)
	return dst, nil
}

// misfit is the error for an n-byte resident that cannot fill the record's
// sample: one admitted around the service.
func (rec *sampleRecord) misfit(n int) error {
	return fmt.Errorf("dataserve: a %d-byte resident cannot fill a %d-byte %s%v sample", n, rec.data, rec.dt, rec.shape)
}
