package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/tensor"
)

// flipTamper corrupts chosen indices' resident blobs once — a minimal
// CacheTamper for unit tests, independent of the fault package.
type flipTamper struct {
	targets map[int]bool
	hits    int
}

func (f *flipTamper) Rots(i int) bool { return f.targets[i] }

func (f *flipTamper) Tamper(i int, blob []byte) bool {
	if !f.targets[i] || len(blob) == 0 {
		return false
	}
	delete(f.targets, i)
	f.hits++
	blob[0] ^= 0xFF
	return true
}

func TestCacheQuarantinesCorruptedHit(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
	lb := tensor.New(tensor.F32, 1)
	lb.F32s[0] = 7
	c.Put(3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, lb)
	c.SetTamper(&flipTamper{targets: map[int]bool{3: true}})

	blob, label, ok, quarantined := c.Get(3)
	if ok || !quarantined || blob != nil || label != nil {
		t.Fatalf("corrupted hit: got (%v, %v, %v, %v), want quarantine miss", blob, label, ok, quarantined)
	}
	if c.Len() != 0 {
		t.Fatalf("quarantined entry still resident: Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Quarantined != 1 || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Quarantined 1, Hits 0, Misses 1", st)
	}

	// Re-admission stores a clean copy; the next hit verifies and serves it.
	c.Put(3, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, lb)
	blob, _, ok, quarantined = c.Get(3)
	if !ok || quarantined || !bytes.Equal(blob, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("re-admitted sample: got (%v, %v, %v)", blob, ok, quarantined)
	}
}

func TestCacheIntegrityCoversLabel(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
	lb := tensor.New(tensor.F32, 1)
	lb.F32s[0] = 7
	c.Put(0, []byte{1, 2, 3}, lb)
	lb.F32s[0] = 8 // corrupt the cached label in place
	if _, _, ok, quarantined := c.Get(0); ok || !quarantined {
		t.Fatalf("label corruption not quarantined: ok=%v quarantined=%v", ok, quarantined)
	}
}

func TestCacheStageCopiesDatasetBlob(t *testing.T) {
	// Put adopts its blob, so the read stage must hand it a copy: a
	// resident aliasing the dataset's memory would let corruption of the
	// cached copy survive the quarantine re-read forever.
	ds := testDataset(4)
	l, err := New(ds, Config{Format: countFormat{}, Batch: 2, Cache: CacheConfig{HostMemBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Epoch(0).Drain(); err != nil {
		t.Fatal(err)
	}
	for i, src := range ds.Blobs {
		blob, _, ok, _ := l.Cache().Get(i)
		if !ok || !bytes.Equal(blob, src) {
			t.Fatalf("sample %d: resident %v ok=%v, dataset %v", i, blob, ok, src)
		}
		if &blob[0] == &src[0] {
			t.Fatalf("sample %d: resident aliases the dataset's blob", i)
		}
	}
}

func TestCacheTamperCopyOnWrite(t *testing.T) {
	// The tamper hook works on a copy: a reader holding the slice of an
	// earlier hit keeps clean bytes, and the hit that rotted the entry
	// quarantines it.
	admitted := []byte{1, 2, 3, 4}
	c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
	c.Put(0, admitted, nil)
	held, _, ok, _ := c.Get(0)
	if !ok {
		t.Fatal("miss after Put")
	}
	c.SetTamper(&flipTamper{targets: map[int]bool{0: true}})
	if _, _, ok, quarantined := c.Get(0); ok || !quarantined {
		t.Fatalf("rotted hit: ok=%v quarantined=%v, want a quarantine", ok, quarantined)
	}
	if !bytes.Equal(held, []byte{1, 2, 3, 4}) || !bytes.Equal(admitted, []byte{1, 2, 3, 4}) {
		t.Fatalf("tamper wrote through to a served slice: held %v, admitted %v", held, admitted)
	}
}

// declineTamper is a CacheTamper that lets no hit rot.
type declineTamper struct{}

func (declineTamper) Rots(int) bool { return false }

func (declineTamper) Tamper(int, []byte) bool { return false }

func TestCacheDeclinedTamperCopiesNothing(t *testing.T) {
	// The hook is asked before the cache copies a resident for it, so a
	// hit it declines costs what a hit without a hook does: no allocation.
	admitted := bytes.Repeat([]byte{7}, 4096)
	c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
	c.Put(0, admitted, nil)
	c.SetTamper(declineTamper{})
	dst := make([]byte, len(admitted))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok, _ := c.GetInto(0, dst); !ok {
			t.Fatal("declined hit missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("a declined hit allocates %v times, want 0", allocs)
	}
}

// TestCacheBitRotEndToEnd is the tentpole integrity scenario: seeded bit rot
// corrupts resident cache entries between epochs; every corrupted hit must
// be quarantined and transparently re-decoded so batches stay bit-identical
// to a clean cached run, with quarantine counters reconciling exactly
// against the injector log.
func TestCacheBitRotEndToEnd(t *testing.T) {
	const n, epochs = 48, 3
	mkLoader := func(reg *obs.Registry) *Loader {
		l, err := New(testDataset(n), Config{
			Format: countFormat{}, Batch: 4,
			Cache: CacheConfig{HostMemBytes: 1 << 20},
			Obs:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	clean := mkLoader(nil)
	var wantIdx []int
	var wantVal []float32
	for e := 0; e < epochs; e++ {
		i, v := epochValues(t, clean.Epoch(e))
		wantIdx, wantVal = append(wantIdx, i...), append(wantVal, v...)
	}

	reg := obs.NewRegistry()
	chaos := mkLoader(reg)
	ci := fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 13, BitRot: 0.15})
	chaos.Cache().SetTamper(ci)
	var gotIdx []int
	var gotVal []float32
	for e := 0; e < epochs; e++ {
		i, v := epochValues(t, chaos.Epoch(e))
		gotIdx, gotVal = append(gotIdx, i...), append(gotVal, v...)
	}

	if !reflect.DeepEqual(gotIdx, wantIdx) || !reflect.DeepEqual(gotVal, wantVal) {
		t.Fatal("bit-rot epoch diverged from clean cached run")
	}
	log := ci.Log()
	if len(log) == 0 {
		t.Fatal("injector logged no bit rot at p=0.15 over 48 samples")
	}
	cst := chaos.Cache().Stats()
	if cst.Quarantined != int64(len(log)) {
		t.Fatalf("cache Quarantined = %d, injector logged %d", cst.Quarantined, len(log))
	}
	s := reg.Snapshot()
	if v := s.Counter("pipeline.cache.quarantined"); v != int64(len(log)) {
		t.Fatalf("pipeline.cache.quarantined = %d, injector logged %d", v, len(log))
	}
	// Quarantined hits re-read and re-admit: the decoded-sample accounting
	// is untouched by the corruption.
	if v := s.Counter("pipeline.samples.decoded"); v != int64(n*epochs) {
		t.Fatalf("pipeline.samples.decoded = %d, want %d", v, n*epochs)
	}
}

// TestQuarantineRedecodePoolClean is the Batch.Release/SlabPool ownership
// audit on the quarantine→re-decode path (run under -race via the merge
// gate): every pooled tensor drawn across the corrupted epochs must return
// to the freelist after Release, with no double-release corrupting the
// freelist (a double-released tensor would be handed out twice and trip the
// race detector or the length check here).
func TestQuarantineRedecodePoolClean(t *testing.T) {
	const n, epochs = 32, 3
	l, err := New(testDataset(n), Config{
		Format: countFormat{}, Batch: 4,
		Cache: CacheConfig{HostMemBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Cache().SetTamper(fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 13, BitRot: 0.25}))
	for e := 0; e < epochs; e++ {
		if _, err := l.Epoch(e).Drain(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	st := l.Pool().Stats()
	// Drain released every batch, so every live tensor is back on the
	// freelist: the pool never holds more free tensors than the distinct
	// samples in flight would justify, and steady-state epochs are all hits.
	if st.FreeTensors == 0 {
		t.Fatal("no tensors returned to the pool")
	}
	if st.Gets == st.Hits {
		t.Fatal("pool accounting impossible: every Get was a Hit including the cold epoch")
	}
	maxLive := int64(n * epochs)
	if st.Gets > maxLive {
		t.Fatalf("pool Gets = %d, want <= %d (re-decodes must reuse released tensors, not leak)", st.Gets, maxLive)
	}
}
