package dataserve

import (
	"testing"

	"scipp/internal/core"
	"scipp/internal/fp16"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

// hitDataset returns a shared dataset whose cache holds sample 0 as the
// benchmark's serve workloads do: a 4x32^3 F16 sample, 256 KiB of raw
// element bytes, with its record learned.
func hitDataset() *sharedDataset {
	src := tensor.New(tensor.F16, 4, 32, 32, 32)
	for i := range src.F16s {
		src.F16s[i] = fp16.Bits(i * 0x9E37)
	}
	sd := &sharedDataset{
		cache:   pipeline.NewSampleCache(pipeline.CacheConfig{HostMemBytes: 1 << 20}),
		pool:    pipeline.NewSlabPool(),
		learned: make([]sampleRecord, 1),
	}
	sd.learnLocked(0, src, nil)
	sd.cache.Put(0, append([]byte(nil), tensor.RawBytes(src)...), nil)
	return sd
}

// serveHit is one shared-cache hit's data path: the pool draw, the
// verified copy into it, and the tensor back to the pool.
func serveHit(tb testing.TB, sd *sharedDataset) {
	dst, _, ok, _, err := sd.hitInto(&sd.learned[0], 0)
	if !ok || err != nil {
		tb.Fatalf("resident missed (hit %v, err %v)", ok, err)
	}
	sd.pool.PutTensor(dst)
}

// BenchmarkServeHit is a data-service hit without the workers: one pass
// that checksums the resident and copies it into a pooled tensor. Its bound
// is a memcpy of the payload.
func BenchmarkServeHit(b *testing.B) {
	sd := hitDataset()
	b.SetBytes(int64(sd.learned[0].data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveHit(b, sd)
	}
}

func TestServeHitAllocatesNothing(t *testing.T) {
	sd := hitDataset()
	serveHit(t, sd) // the pool's first draw allocates the slab
	if n := testing.AllocsPerRun(20, func() { serveHit(t, sd) }); n != 0 {
		t.Fatalf("a warm serve hit allocates %v times", n)
	}
}

func TestMaterializeRefusesMisfitResident(t *testing.T) {
	sd := hitDataset()
	enc, _, _, _ := sd.cache.Get(0)
	if _, err := sd.materialize(&sd.learned[0], enc[:len(enc)-2]); err == nil {
		t.Fatal("a resident two bytes short was materialized")
	}
}

// TestHitRefusesMisfitResident is TestMaterializeRefusesMisfitResident's
// case on the hit path fetch takes: a resident two bytes short, admitted
// around the service, is a verified hit that is refused, and the tensor
// drawn for it goes back to the pool.
func TestHitRefusesMisfitResident(t *testing.T) {
	sd := hitDataset()
	enc, _, _, _ := sd.cache.Get(0)
	sd.cache.Put(0, enc[:len(enc)-2], nil)
	data, _, hit, _, err := sd.hitInto(&sd.learned[0], 0)
	if !hit || err == nil || data != nil {
		t.Fatalf("misfit resident: hit %v, err %v, data %v; want a refused hit", hit, err, data != nil)
	}
	if st := sd.pool.Stats(); st.Gets != 1 || st.FreeTensors != 1 {
		t.Fatalf("pool %+v: the refused hit's tensor did not come back", st)
	}
}

// TestHitLateMismatch changes the resident behind the ownership rule, where
// only the cache's checksum-and-copy pass after unlocking can see it: the
// hit must turn into a quarantined miss (the cache relocks, reverses the
// hit and drops the entry) and the tensor drawn for it must go back to the
// pool.
func TestHitLateMismatch(t *testing.T) {
	sd := hitDataset()
	enc, _, _, _ := sd.cache.Get(0)
	enc[100] ^= 1
	before := sd.cache.Stats()
	data, _, hit, quarantined, err := sd.hitInto(&sd.learned[0], 0)
	if hit || !quarantined || err != nil || data != nil {
		t.Fatalf("late mismatch: hit %v, quarantined %v, err %v; want a quarantined miss", hit, quarantined, err)
	}
	st := sd.cache.Stats()
	if st.Hits != before.Hits || st.Misses != before.Misses+1 || st.Quarantined != 1 || sd.cache.Resident(0) {
		t.Fatalf("cache %+v after %+v: want the hit reversed and the entry quarantined", st, before)
	}
	if ps := sd.pool.Stats(); ps.Gets != 1 || ps.FreeTensors != 1 {
		t.Fatalf("pool %+v: the missed hit's tensor did not come back", ps)
	}
}

// missDataset returns the shared dataset of a service whose cache holds one
// of two 4x32^3 cosmo-LUT samples, the serve workloads' sample, as
// serve_churn's cache holds a quarter of its set, and an iterator of one
// tenant to fetch through. Requests alternating between the two samples
// are all joiner-free misses, each evicting the other's resident.
func missDataset(tb testing.TB) (*sharedDataset, *Iterator) {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = 32
	data, err := core.BuildCosmoDataset(cfg, 2, core.Plugin)
	if err != nil {
		tb.Fatal(err)
	}
	svc := New(Config{Workers: 1})
	tb.Cleanup(svc.Close)
	resident := int64(4 * 32 * 32 * 32 * 2)
	if err := svc.Register(DatasetConfig{
		Name: "churn", Data: data, Format: core.FormatFor(core.CosmoFlow, core.Plugin),
		Cache: pipeline.CacheConfig{HostMemBytes: resident + resident/2},
	}); err != nil {
		tb.Fatal(err)
	}
	tn, err := svc.Attach(TenantConfig{Name: "t", Dataset: "churn"})
	if err != nil {
		tb.Fatal(err)
	}
	return tn.sd, &Iterator{t: tn, abort: make(chan struct{})}
}

// serveMiss is one miss's whole service path, the workers' queue aside:
// the residency probe, the flight, decode into a pooled tensor, the seal
// and the link that evicts the other sample, with the tensor back to the
// pool.
func serveMiss(tb testing.TB, sd *sharedDataset, it *Iterator, index int) {
	before := sd.cache.Stats().Misses
	data, _, err := sd.fetch(it, index)
	if err != nil {
		tb.Fatal(err)
	}
	if sd.cache.Stats().Misses == before {
		tb.Fatalf("sample %d was a hit", index)
	}
	sd.pool.PutTensor(data)
}

// BenchmarkServeMiss is a data-service miss without the workers: decode,
// then one pass that copies the decoded bytes into a recycled cache slab
// and checksums them, then the link and its eviction.
func BenchmarkServeMiss(b *testing.B) {
	sd, it := missDataset(b)
	serveMiss(b, sd, it, 0)
	b.SetBytes(int64(sd.learned[0].data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveMiss(b, sd, it, (i+1)%2)
	}
}

// TestServeMissAllocs pins the miss path's allocations: once both samples
// have been decoded, a miss reuses the evicted resident's slab and entry,
// a spare flight and a pooled tensor, and allocates nothing.
func TestServeMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sd, it := missDataset(t)
	for i := 0; i < 4; i++ {
		serveMiss(t, sd, it, i%2)
	}
	i := 0
	n := testing.AllocsPerRun(20, func() {
		serveMiss(t, sd, it, i%2)
		i++
	})
	if n != 0 {
		t.Fatalf("a warm joiner-free miss allocates %v times", n)
	}
}
