package dataserve_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/dataserve"
	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// rawF32Format is a minimal test codec: the blob is the sample's raw F32
// element bits, little-endian, with a fixed shape. Chunks are the rows of
// the outermost dimension, so chunk decomposition (and therefore output
// bits) is deterministic under any worker count, like the real formats.
type rawF32Format struct{ shape tensor.Shape }

func (f rawF32Format) Name() string { return "rawf32" }

func (f rawF32Format) Open(blob []byte) (codec.ChunkDecoder, error) {
	if len(blob) != 4*f.shape.Elems() {
		return nil, fmt.Errorf("rawf32: blob is %d bytes, want %d", len(blob), 4*f.shape.Elems())
	}
	return &rawF32Decoder{shape: f.shape, blob: blob}, nil
}

type rawF32Decoder struct {
	shape tensor.Shape
	blob  []byte
}

func (d *rawF32Decoder) OutputShape() tensor.Shape { return d.shape }
func (d *rawF32Decoder) OutputDType() tensor.DType { return tensor.F32 }
func (d *rawF32Decoder) NumChunks() int            { return d.shape[0] }
func (d *rawF32Decoder) Workload() codec.Workload {
	return codec.Workload{BytesIn: len(d.blob), BytesOut: len(d.blob), Chunks: d.shape[0]}
}

func (d *rawF32Decoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	per := d.shape.Elems() / d.shape[0]
	for i := chunk * per; i < (chunk+1)*per; i++ {
		dst.F32s[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.blob[4*i:]))
	}
	return nil
}

// buildDataset makes n deterministic samples of the given shape: element j
// of sample i is a pure function of (i, j), so reference decodes are exact.
func buildDataset(n int, shape tensor.Shape) *pipeline.MemDataset {
	ds := &pipeline.MemDataset{}
	elems := shape.Elems()
	for i := 0; i < n; i++ {
		blob := make([]byte, 0, 4*elems)
		for j := 0; j < elems; j++ {
			v := float32(i*1000+j) * 0.5
			blob = binary.LittleEndian.AppendUint32(blob, math.Float32bits(v))
		}
		ds.Blobs = append(ds.Blobs, blob)
		ds.Labels = append(ds.Labels, tensor.FromF32([]float32{float32(i)}, 1))
	}
	return ds
}

var testShape = tensor.Shape{4, 3, 2}

// digestBatches folds a FNV-1a digest over every batch an iterator
// delivers (indices, data bits, label bits), releasing batches as it goes.
// It returns the digest and the number of samples delivered.
func digestBatches(t *testing.T, it interface {
	Next() (*pipeline.Batch, error)
	Close()
}) (uint64, int) {
	t.Helper()
	defer it.Close()
	h := uint64(0xcbf29ce484222325)
	n := 0
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if b == nil {
			return h, n
		}
		for s := range b.Data {
			h = fold(h, uint64(b.Indices[s]))
			d := b.Data[s]
			for i := 0; i < d.Elems(); i++ {
				h = fold(h, uint64(math.Float32bits(d.At32(i))))
			}
			l := b.Labels[s]
			for i := 0; i < l.Elems(); i++ {
				h = fold(h, uint64(math.Float32bits(l.At32(i))))
			}
		}
		n += b.Size()
		b.Release()
	}
}

// fold is one FNV-1a step over a 64-bit word, as in internal/sweep.
func fold(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (v >> s & 0xFF)) * 0x100000001b3
	}
	return h
}

// loaderDigest runs the single-tenant twin: a private pipeline.Loader over
// the same dataset with the same schedule config.
func loaderDigest(t *testing.T, ds pipeline.Dataset, batch int, shuffle bool, seed uint64, epochs int) uint64 {
	t.Helper()
	l, err := pipeline.New(ds, pipeline.Config{
		Format:  rawF32Format{testShape},
		Batch:   batch,
		Shuffle: shuffle,
		Seed:    seed,
	})
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	h := uint64(0xcbf29ce484222325)
	for e := 0; e < epochs; e++ {
		eh, _ := digestBatches(t, l.Epoch(e))
		h = fold(h, eh)
	}
	return h
}

// tenantDigest runs epochs of a tenant and folds their digests.
func tenantDigest(t *testing.T, tn *dataserve.Tenant, epochs int) uint64 {
	t.Helper()
	h := uint64(0xcbf29ce484222325)
	for e := 0; e < epochs; e++ {
		it := tn.Epoch(e)
		if it == nil {
			t.Fatalf("tenant %s: nil epoch %d iterator", tn.Name(), e)
		}
		eh, _ := digestBatches(t, it)
		h = fold(h, eh)
	}
	return h
}

func newService(t *testing.T, ds pipeline.Dataset, reg *obs.Registry, dcfg dataserve.DatasetConfig) *dataserve.Service {
	t.Helper()
	svc := dataserve.New(dataserve.Config{Workers: 4, Obs: reg})
	t.Cleanup(svc.Close)
	dcfg.Name = "shared"
	dcfg.Data = ds
	if dcfg.Format == nil {
		dcfg.Format = rawF32Format{testShape}
	}
	if dcfg.Cache.HostMemBytes == 0 && dcfg.Cache.NVMeBytes == 0 {
		dcfg.Cache = pipeline.CacheConfig{HostMemBytes: 16 << 20}
	}
	if err := svc.Register(dcfg); err != nil {
		t.Fatalf("Register: %v", err)
	}
	return svc
}

// TestCrossTenantDeterminism is the determinism suite's clean half: two
// tenants over the same shared dataset with different shuffles, running
// concurrently, must each see batches bit-identical to a single-tenant
// private loader with the same schedule.
func TestCrossTenantDeterminism(t *testing.T) {
	const samples, batch, epochs = 24, 4, 3
	ds := buildDataset(samples, testShape)
	svc := newService(t, ds, nil, dataserve.DatasetConfig{})

	cfgs := []dataserve.TenantConfig{
		{Name: "a", Dataset: "shared", Shuffle: true, Seed: 7, Batch: batch, Inflight: 8},
		{Name: "b", Dataset: "shared", Shuffle: true, Seed: 99, Batch: batch, Inflight: 8},
		{Name: "c", Dataset: "shared", Shuffle: false, Batch: batch, Inflight: 4},
	}
	tenants := make([]*dataserve.Tenant, len(cfgs))
	for i, c := range cfgs {
		tn, err := svc.Attach(c)
		if err != nil {
			t.Fatalf("Attach %s: %v", c.Name, err)
		}
		tenants[i] = tn
	}

	digests := make([]uint64, len(tenants))
	var wg sync.WaitGroup
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn *dataserve.Tenant) {
			defer wg.Done()
			digests[i] = tenantDigest(t, tn, epochs)
		}(i, tn)
	}
	wg.Wait()

	for i, c := range cfgs {
		want := loaderDigest(t, ds, batch, c.Shuffle, c.Seed, epochs)
		if digests[i] != want {
			t.Errorf("tenant %s digest %016x, private loader twin %016x", c.Name, digests[i], want)
		}
	}

	st := svc.Stats()
	if st.Decodes != samples {
		t.Errorf("service decoded %d samples, want %d (one decode per unique sample)", st.Decodes, samples)
	}
}

// TestCrossTenantDeterminismUnderFaults is the faulted half: transient I/O
// faults on the backing dataset and seeded bit rot on the shared cache
// must stay invisible — every tenant's batches remain bit-identical to the
// fault-free private twin — while retries and quarantines reconcile
// exactly against the injector logs.
func TestCrossTenantDeterminismUnderFaults(t *testing.T) {
	const samples, batch, epochs = 24, 4, 3
	clean := buildDataset(samples, testShape)
	inj := fault.Wrap(clean, fault.Config{Seed: 11, Transient: 0.25})
	reg := obs.NewRegistry()
	svc := newService(t, inj, reg, dataserve.DatasetConfig{MaxRetries: 2})
	ci := fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 5, BitRot: 0.2})
	svc.Cache("shared").SetTamper(ci)

	cfgs := []dataserve.TenantConfig{
		{Name: "a", Dataset: "shared", Shuffle: true, Seed: 7, Batch: batch},
		{Name: "b", Dataset: "shared", Shuffle: true, Seed: 99, Batch: batch},
	}
	tenants := make([]*dataserve.Tenant, len(cfgs))
	for i, c := range cfgs {
		tn, err := svc.Attach(c)
		if err != nil {
			t.Fatalf("Attach %s: %v", c.Name, err)
		}
		tenants[i] = tn
	}
	digests := make([]uint64, len(tenants))
	var wg sync.WaitGroup
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn *dataserve.Tenant) {
			defer wg.Done()
			digests[i] = tenantDigest(t, tn, epochs)
		}(i, tn)
	}
	wg.Wait()
	for i, c := range cfgs {
		want := loaderDigest(t, clean, batch, c.Shuffle, c.Seed, epochs)
		if digests[i] != want {
			t.Errorf("tenant %s digest %016x under faults, clean twin %016x", c.Name, digests[i], want)
		}
	}

	// Reconcile against the injector ground truth.
	st := svc.Stats()
	var transients int64
	for _, in := range inj.Log() {
		if in.Kind == fault.TransientIO {
			transients++
		}
	}
	if transients == 0 {
		t.Fatalf("transient injector fired nothing; raise the probability")
	}
	if st.Retries != transients {
		t.Errorf("service retried %d, injector logged %d transients", st.Retries, transients)
	}
	var tenantRetries int64
	for _, tn := range tenants {
		tenantRetries += tn.Stats().Retries
	}
	if tenantRetries != transients {
		t.Errorf("tenants retried %d, injector logged %d", tenantRetries, transients)
	}
	rots := int64(len(ci.Log()))
	if rots == 0 {
		t.Fatalf("cache injector fired nothing; raise the probability")
	}
	if st.CacheQuarantined != rots {
		t.Errorf("quarantined %d, injector logged %d rot events", st.CacheQuarantined, rots)
	}
	if got := svc.Cache("shared").Stats().Quarantined; got != rots {
		t.Errorf("cache stats quarantined %d, injector logged %d", got, rots)
	}
	if got := reg.Snapshot().Counter("dataserve.cache.quarantined"); got != rots {
		t.Errorf("obs quarantined %d, injector logged %d", got, rots)
	}
	// Every quarantine and nothing else forces a re-decode past the first
	// cold pass, so decodes reconcile too.
	if st.Decodes != int64(samples)+rots {
		t.Errorf("decoded %d, want %d samples + %d quarantine re-decodes", st.Decodes, samples, rots)
	}
}

// TestSingleFlightReconciliation locks the dedup contract: K tenants over
// the same S samples produce exactly S decodes — never K*S — and the
// dedup counter equals (K-1)*S.
func TestSingleFlightReconciliation(t *testing.T) {
	const samples, k = 32, 4
	ds := buildDataset(samples, testShape)
	reg := obs.NewRegistry()
	svc := newService(t, ds, reg, dataserve.DatasetConfig{})

	tenants := make([]*dataserve.Tenant, k)
	for i := range tenants {
		tn, err := svc.Attach(dataserve.TenantConfig{
			Name: fmt.Sprintf("t%d", i), Dataset: "shared",
			Shuffle: true, Seed: uint64(i + 1), Batch: 4, Inflight: 16,
		})
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		tenants[i] = tn
	}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *dataserve.Tenant) {
			defer wg.Done()
			it := tn.Epoch(0)
			if _, n := digestBatches(t, it); n != samples {
				t.Errorf("tenant %s got %d samples, want %d", tn.Name(), n, samples)
			}
		}(tn)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Decodes != samples {
		t.Errorf("decode count %d, want %d (S unique samples, not K*S=%d)", st.Decodes, samples, k*samples)
	}
	if want := int64((k - 1) * samples); st.Dedup != want {
		t.Errorf("dedup %d, want (K-1)*S = %d", st.Dedup, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("dataserve.decode.count"); got != samples {
		t.Errorf("obs decode.count %d, want %d", got, samples)
	}
	if got, want := snap.Counter("dataserve.decode.dedup"), int64((k-1)*samples); got != want {
		t.Errorf("obs decode.dedup %d, want %d", got, want)
	}

	var sumDecodes, sumDedup int64
	for _, tn := range tenants {
		ts := tn.Stats()
		sumDecodes += ts.Decodes
		sumDedup += ts.Dedup
		// Every sample was served exactly once per tenant, by exactly one
		// of the three shared paths or its own decode.
		if got := ts.Decodes + ts.HitsOwned + ts.HitsBorrowed + ts.Joins; got != samples {
			t.Errorf("tenant %s: decodes+hits+joins = %d, want %d", tn.Name(), got, samples)
		}
		if ts.Decodes+ts.Dedup != samples {
			t.Errorf("tenant %s: decodes %d + dedup %d != %d", tn.Name(), ts.Decodes, ts.Dedup, samples)
		}
		if ts.Samples != samples {
			t.Errorf("tenant %s delivered %d samples, want %d", tn.Name(), ts.Samples, samples)
		}
	}
	if sumDecodes != st.Decodes {
		t.Errorf("tenant decodes sum %d != service %d", sumDecodes, st.Decodes)
	}
	if sumDedup != st.Dedup {
		t.Errorf("tenant dedup sum %d != service %d", sumDedup, st.Dedup)
	}
}

// TestStatsObsReconcile pins Stats as a typed view over the instruments:
// one serialized schedule run on a service without Config.Obs and on one
// with a registry yields identical Stats, and every dataserve.* counter the
// registry exports reads the same number as its Stats field.
func TestStatsObsReconcile(t *testing.T) {
	const samples, bad = 16, 5
	run := func(reg *obs.Registry) (dataserve.ServiceStats, map[string]dataserve.TenantStats) {
		ds := buildDataset(samples, testShape)
		ds.Blobs[bad] = ds.Blobs[bad][:3] // truncated: Open always fails
		svc := newService(t, ds, reg, dataserve.DatasetConfig{PoisonK: 2})
		// Inflight 1 and one tenant epoch at a time serialize every request,
		// so each count is a function of the schedule alone. x's failures,
		// then y's, blacklist the bad sample; x's second epoch is refused it.
		x, err := svc.Attach(dataserve.TenantConfig{Name: "x", Dataset: "shared", Shuffle: true, Seed: 3, Batch: 3, Inflight: 1, MaxBadSamples: 4})
		if err != nil {
			t.Fatalf("Attach x: %v", err)
		}
		y, err := svc.Attach(dataserve.TenantConfig{Name: "y", Dataset: "shared", Batch: 3, Inflight: 1, MaxBadSamples: 4})
		if err != nil {
			t.Fatalf("Attach y: %v", err)
		}
		for i, tn := range []*dataserve.Tenant{x, y, x, y} {
			it := tn.Epoch(i / 2)
			for {
				b, err := it.Next()
				if err != nil || b == nil {
					break
				}
				b.Release()
			}
			it.Close()
		}
		return svc.Stats(), map[string]dataserve.TenantStats{"x": x.Stats(), "y": y.Stats()}
	}
	bareSvc, bareTenants := run(nil)
	reg := obs.NewRegistry()
	st, tenants := run(reg)
	if bareSvc != st {
		t.Errorf("ServiceStats without a registry %+v, with one %+v", bareSvc, st)
	}
	for name, ts := range tenants {
		if bareTenants[name] != ts {
			t.Errorf("tenant %s Stats without a registry %+v, with one %+v", name, bareTenants[name], ts)
		}
	}
	if st.Poisoned != 1 || st.PoisonRejects == 0 {
		t.Fatalf("the schedule missed a path: %+v", st)
	}

	svcView := map[string]int64{
		"decode.count": st.Decodes, "decode.dedup": st.Dedup, "retries": st.Retries,
		"cache.hits": st.CacheHits, "cache.misses": st.CacheMisses, "cache.quarantined": st.CacheQuarantined,
		"dispatched": st.Dispatched, "shed": st.Shed, "breaker.rejects": st.BreakerRejects,
		"bytes.served": st.ServedBytes, "bytes.shed": st.ShedBytes,
		"poisoned": st.Poisoned, "poison.rejects": st.PoisonRejects, "detached.slow": st.SlowDetaches,
	}
	tenantView := func(ts dataserve.TenantStats) map[string]int64 {
		return map[string]int64{
			"samples": ts.Samples, "batches": ts.Batches, "decodes": ts.Decodes, "dedup": ts.Dedup,
			"hits.owned": ts.HitsOwned, "hits.borrowed": ts.HitsBorrowed, "joins": ts.Joins,
			"retries": ts.Retries, "errors": ts.Errors,
			"shed": ts.Shed, "skips": ts.Skips, "bytes.served": ts.BytesServed,
			"breaker.trips": ts.BreakerTrips, "breaker.probes": ts.BreakerProbes,
			"breaker.rejects": ts.BreakerRejects, "detached.slow": ts.SlowDetached,
		}
	}
	// Counters Stats has no field for: read them from the registry.
	unviewed := map[string]bool{"decode.errors": true, "cache.evictions": true}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		metric := strings.TrimPrefix(c.Name, "dataserve.")
		view := svcView
		if rest, ok := strings.CutPrefix(metric, "tenant."); ok {
			var name string
			name, metric, _ = strings.Cut(rest, ".")
			view = tenantView(tenants[name])
		}
		want, ok := view[metric]
		if !ok {
			if !unviewed[metric] {
				t.Errorf("%s has no Stats field", c.Name)
			}
			continue
		}
		if c.Value != want {
			t.Errorf("%s = %d, Stats read %d", c.Name, c.Value, want)
		}
	}
	if got := snap.Gauge("dataserve.tenants").Value; got != float64(st.Tenants) {
		t.Errorf("tenants gauge %v, Stats read %d", got, st.Tenants)
	}
	for name, ts := range tenants {
		if got := snap.Gauge("dataserve.tenant." + name + ".queue_wait.max").Max; got != float64(ts.QueueWaitMax) {
			t.Errorf("tenant %s queue_wait.max %v, Stats read %d", name, got, ts.QueueWaitMax)
		}
	}
}

// TestReattachStatsCumulative pins the cumulative rule: a tenant's metrics
// are keyed by its name, so attaching a name again continues its counts,
// in step with the first-touch and ownership records the name also keeps.
func TestReattachStatsCumulative(t *testing.T) {
	const samples = 8
	svc := newService(t, buildDataset(samples, testShape), nil, dataserve.DatasetConfig{})
	cfg := dataserve.TenantConfig{Name: "r", Dataset: "shared", Batch: 4}
	first, err := svc.Attach(cfg)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	tenantDigest(t, first, 1)
	first.Detach()
	second, err := svc.Attach(cfg)
	if err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	tenantDigest(t, second, 1)

	// The second run hits every sample the first one decoded: owned hits,
	// and no first touch left to count as dedup.
	got := second.Stats()
	if got.Samples != 2*samples || got.Batches != 4 || got.Decodes != samples || got.HitsOwned != samples || got.Dedup != 0 {
		t.Errorf("re-attached Stats %+v, want samples %d, batches 4, decodes %d, owned hits %d, dedup 0",
			got, 2*samples, samples, samples)
	}
	if old := first.Stats(); old != got {
		t.Errorf("the detached handle reads %+v, the re-attached one %+v: one name, one ledger", old, got)
	}
}

// TestSampleErrorPropagates delivers a permanent decode failure to every
// tenant waiting on the flight, wrapped as a typed *SampleError.
func TestSampleErrorPropagates(t *testing.T) {
	ds := buildDataset(8, testShape)
	ds.Blobs[3] = ds.Blobs[3][:5] // permanently truncated: Open fails
	svc := newService(t, ds, nil, dataserve.DatasetConfig{MaxRetries: 2})
	tn, err := svc.Attach(dataserve.TenantConfig{Name: "e", Dataset: "shared", Batch: 2})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	it := tn.Epoch(0)
	defer it.Close()
	for {
		b, err := it.Next()
		if err != nil {
			var se *dataserve.SampleError
			if !errors.As(err, &se) {
				t.Fatalf("Next: %v, want *SampleError", err)
			}
			if se.Index != 3 || se.Tenant != "e" || se.Dataset != "shared" {
				t.Errorf("SampleError %+v, want index 3 tenant e dataset shared", se)
			}
			if tn.Stats().Errors != 1 {
				t.Errorf("Errors = %d, want 1", tn.Stats().Errors)
			}
			return
		}
		if b == nil {
			t.Fatalf("epoch ended cleanly; want a *SampleError at sample 3")
		}
		b.Release()
	}
}

// TestAttachRegisterValidation covers the service's configuration errors.
func TestAttachRegisterValidation(t *testing.T) {
	ds := buildDataset(4, testShape)
	svc := dataserve.New(dataserve.Config{Workers: 2})
	defer svc.Close()
	if err := svc.Register(dataserve.DatasetConfig{Name: "d"}); err == nil {
		t.Errorf("Register without Data/Format succeeded")
	}
	ok := dataserve.DatasetConfig{Name: "d", Data: ds, Format: rawF32Format{testShape}}
	if err := svc.Register(ok); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := svc.Register(ok); err == nil {
		t.Errorf("duplicate Register succeeded")
	}
	if _, err := svc.Attach(dataserve.TenantConfig{Dataset: "d"}); err == nil {
		t.Errorf("Attach without name succeeded")
	}
	if _, err := svc.Attach(dataserve.TenantConfig{Name: "t", Dataset: "nope"}); err == nil {
		t.Errorf("Attach to unknown dataset succeeded")
	}
	tn, err := svc.Attach(dataserve.TenantConfig{Name: "t", Dataset: "d"})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := svc.Attach(dataserve.TenantConfig{Name: "t", Dataset: "d"}); err == nil {
		t.Errorf("duplicate Attach succeeded")
	}
	if svc.Cache("nope") != nil || svc.Pool("nope") != nil {
		t.Errorf("unknown dataset returned non-nil cache/pool")
	}
	if svc.Cache("d") == nil || svc.Pool("d") == nil {
		t.Errorf("registered dataset returned nil cache/pool")
	}
	tn.Detach()
	tn.Detach() // idempotent
	if it := tn.Epoch(0); it != nil {
		t.Errorf("detached tenant still yields iterators")
	}
	svc.Close()
	svc.Close() // idempotent
	if err := svc.Register(ok); err == nil {
		t.Errorf("Register on closed service succeeded")
	}
	if _, err := svc.Attach(dataserve.TenantConfig{Name: "u", Dataset: "d"}); err == nil {
		t.Errorf("Attach on closed service succeeded")
	}
}

// TestHotIndexQuarantineRace is the ownership rule at the service: two
// tenants hammer one sample while seeded bit rot keeps quarantining it and
// the flights re-admit it. Cache hits verify outside every lock, so a
// tenant can hold a resident while the other's hit rots and drops it; both
// must still receive the bit-identical tensor on every serve, each rot
// must be quarantined exactly once, and each quarantine must cost exactly
// one re-decode.
func TestHotIndexQuarantineRace(t *testing.T) {
	const epochs = 150
	ds := buildDataset(1, testShape)
	svc := newService(t, ds, nil, dataserve.DatasetConfig{})
	ci := fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 9, BitRot: 1, BitRotEvents: 40})
	svc.Cache("shared").SetTamper(ci)
	tenants := make([]*dataserve.Tenant, 2)
	for i := range tenants {
		tn, err := svc.Attach(dataserve.TenantConfig{Name: fmt.Sprintf("t%d", i), Dataset: "shared", Batch: 1})
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		tenants[i] = tn
	}
	digests := make([]uint64, len(tenants))
	var wg sync.WaitGroup
	for i, tn := range tenants {
		wg.Add(1)
		go func(i int, tn *dataserve.Tenant) {
			defer wg.Done()
			digests[i] = tenantDigest(t, tn, epochs)
		}(i, tn)
	}
	wg.Wait()
	want := loaderDigest(t, ds, 1, false, 0, epochs)
	for i, d := range digests {
		if d != want {
			t.Errorf("tenant t%d digest %016x, clean twin %016x", i, d, want)
		}
	}
	st := svc.Stats()
	rots := int64(len(ci.Log()))
	if rots == 0 {
		t.Fatal("cache injector fired nothing; raise the probability")
	}
	if st.CacheQuarantined != rots || st.Decodes != 1+rots {
		t.Errorf("quarantined %d, decodes %d; injector logged %d rots (want %d quarantines, %d decodes)",
			st.CacheQuarantined, st.Decodes, rots, rots, 1+rots)
	}
	if err := svc.Cache("shared").VerifyAccounting(); err != nil {
		t.Error(err)
	}
}

// TestFetchRefusesMisfitResident takes TestMaterializeRefusesMisfitResident's
// case through the service: once an epoch has learned and admitted every
// sample, a resident two bytes short, put around the service, ends the next
// epoch with the misfit error instead of a half-filled tensor.
func TestFetchRefusesMisfitResident(t *testing.T) {
	svc := newService(t, buildDataset(2, testShape), nil, dataserve.DatasetConfig{})
	tn, err := svc.Attach(dataserve.TenantConfig{Name: "x", Dataset: "shared", Batch: 2, Inflight: 1})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	tenantDigest(t, tn, 1)
	c := svc.Cache("shared")
	blob, label, ok, _ := c.Get(0)
	if !ok {
		t.Fatal("sample 0 not resident after an epoch")
	}
	c.Put(0, blob[:len(blob)-2], label)
	it := tn.Epoch(1)
	defer it.Close()
	if b, err := it.Next(); err == nil || !strings.Contains(err.Error(), "cannot fill") {
		t.Fatalf("epoch over a misfit resident: batch %v, err %v; want the misfit error", b != nil, err)
	}
}
