package pipeline

import (
	"fmt"
	"testing"

	"scipp/internal/iosim"
	"scipp/internal/obs"
	"scipp/internal/platform"
	"scipp/internal/tensor"
)

// testLabel mirrors testDataset's labels: one F32 element = 4 bytes, so one
// cached sample (1-byte blob + label) costs 5 bytes.
const testSampleCost = 5

func putSample(c *SampleCache, i int) int {
	lb := tensor.New(tensor.F32, 1)
	lb.F32s[0] = float32(i)
	return c.Put(i, []byte{byte(i)}, lb)
}

func TestSampleCacheFillToCapacity(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 5 * testSampleCost})
	for i := 0; i < 5; i++ {
		if dropped := putSample(c, i); dropped != 0 {
			t.Fatalf("put %d dropped %d entries before capacity", i, dropped)
		}
	}
	for i := 0; i < 5; i++ {
		blob, label, ok, _ := c.Get(i)
		if !ok {
			t.Fatalf("sample %d not resident after fill", i)
		}
		if blob[0] != byte(i) || label.F32s[0] != float32(i) {
			t.Fatalf("sample %d payload corrupted", i)
		}
	}
	st := c.Stats()
	if st.HostSamples != 5 || st.HostBytes != 5*testSampleCost {
		t.Errorf("host occupancy %d samples / %d bytes, want 5 / %d", st.HostSamples, st.HostBytes, 5*testSampleCost)
	}
	if st.Evictions != 0 || st.Demotions != 0 {
		t.Errorf("fill within capacity evicted: %+v", st)
	}
	if st.Hits != 5 || st.Misses != 0 {
		t.Errorf("hits/misses %d/%d, want 5/0", st.Hits, st.Misses)
	}
}

// TestSampleCacheDeterministicEviction pins the LRU policy: with a 3-sample
// host tier and no NVMe tier, inserting a 4th sample drops the least
// recently used resident — and a Get refreshes recency, changing the victim.
// The same op sequence must always pick the same victims.
func TestSampleCacheDeterministicEviction(t *testing.T) {
	run := func() (victims []int) {
		c := NewSampleCache(CacheConfig{HostMemBytes: 3 * testSampleCost})
		for i := 0; i < 3; i++ {
			putSample(c, i)
		}
		c.Get(0) // refresh: LRU is now 1
		putSample(c, 3)
		putSample(c, 4)
		for i := 0; i < 5; i++ {
			if _, _, ok, _ := c.Get(i); !ok {
				victims = append(victims, i)
			}
		}
		if st := c.Stats(); st.Evictions != 2 {
			t.Fatalf("evictions = %d, want 2", st.Evictions)
		}
		return victims
	}
	first := run()
	if fmt.Sprint(first) != "[1 2]" {
		t.Errorf("LRU victims %v, want [1 2] (0 was refreshed)", first)
	}
	for trial := 0; trial < 3; trial++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("eviction order not deterministic: %v vs %v", got, first)
		}
	}
}

// TestSampleCacheDemotion pins the two-tier flow: host overflow demotes LRU
// entries into the NVMe tier, and NVMe overflow drops its own LRU entry.
func TestSampleCacheDemotion(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 3 * testSampleCost, NVMeBytes: 2 * testSampleCost})
	for i := 0; i < 5; i++ {
		putSample(c, i) // 3 and 4 push 0 then 1 down to NVMe
	}
	st := c.Stats()
	if st.Demotions != 2 || st.Evictions != 0 {
		t.Fatalf("after 5 puts: demotions=%d evictions=%d, want 2/0", st.Demotions, st.Evictions)
	}
	if st.NVMeSamples != 2 {
		t.Fatalf("NVMe holds %d samples, want 2", st.NVMeSamples)
	}
	if _, _, ok, _ := c.Get(0); !ok {
		t.Error("demoted sample 0 should still be resident (NVMe)")
	}
	if c.Stats().NVMeHits != 1 {
		t.Error("demoted hit not accounted to the NVMe tier")
	}
	putSample(c, 5) // demotes 2; NVMe {2,0,1} overflows, dropping LRU = 1
	if _, _, ok, _ := c.Get(1); ok {
		t.Error("NVMe LRU entry 1 should have been dropped")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Demotions != 3 {
		t.Errorf("after overflow: demotions=%d evictions=%d, want 3/1", st.Demotions, st.Evictions)
	}
	if c.Len() != 5 {
		t.Errorf("resident count %d, want 5", c.Len())
	}
}

func TestSampleCacheOversizedSampleUncacheable(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 2})
	putSample(c, 0) // 5 bytes > every tier
	if c.Len() != 0 {
		t.Error("oversized sample was cached")
	}
	if _, _, ok, _ := c.Get(0); ok {
		t.Error("oversized sample resident")
	}
}

// TestCacheSecondEpochServedFromCache is the acceptance scenario: a
// HostMem-sized cache, two epochs — the first populates (all misses), the
// second is served entirely from the cache (hit counter == dataset size).
func TestCacheSecondEpochServedFromCache(t *testing.T) {
	const n = 20
	reg := obs.NewRegistry()
	l, err := New(testDataset(n), Config{
		Format:  countFormat{},
		Batch:   4,
		Shuffle: true,
		Seed:    9,
		Cache:   CacheConfig{HostMemBytes: n * testSampleCost},
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		got, err := l.Epoch(epoch).Drain()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if got != n {
			t.Fatalf("epoch %d delivered %d samples, want %d", epoch, got, n)
		}
	}
	snap := reg.Snapshot()
	if hits := snap.Counter("pipeline.cache.hits"); hits != n {
		t.Errorf("cache hits = %d, want %d (entire second epoch)", hits, n)
	}
	if misses := snap.Counter("pipeline.cache.misses"); misses != n {
		t.Errorf("cache misses = %d, want %d (entire first epoch)", misses, n)
	}
	if ev := snap.Counter("pipeline.cache.evictions"); ev != 0 {
		t.Errorf("cache evictions = %d, want 0 (dataset fits)", ev)
	}
	if dec := snap.Counter("pipeline.samples.decoded"); dec != 2*n {
		t.Errorf("decoded = %d, want %d", dec, 2*n)
	}
	cs := l.Cache().Stats()
	if cs.HostSamples != n || cs.NVMeSamples != 0 {
		t.Errorf("residency %d host / %d nvme, want %d / 0", cs.HostSamples, cs.NVMeSamples, n)
	}
}

// collectRun collects every delivered (index, data, label) triple of a
// multi-epoch run, in delivery order.
func collectRun(t *testing.T, l *Loader, epochs int) []string {
	t.Helper()
	var out []string
	for e := 0; e < epochs; e++ {
		it := l.Epoch(e)
		for {
			b, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			for k, idx := range b.Indices {
				out = append(out, fmt.Sprintf("%d:%v:%v", idx, b.Data[k].F32s, b.Labels[k].F32s))
			}
		}
	}
	return out
}

// TestCachedRunBitIdenticalToUncached: enabling the cache must change where
// bytes come from, never what they are — delivery order, decoded tensors and
// labels are identical with and without it.
func TestCachedRunBitIdenticalToUncached(t *testing.T) {
	const n = 24
	mk := func(cache CacheConfig, reg *obs.Registry) *Loader {
		l, err := New(testDataset(n), Config{
			Format:  countFormat{},
			Batch:   5,
			Shuffle: true,
			Seed:    41,
			Cache:   cache,
			Obs:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	uncachedReg := obs.NewRegistry()
	cached := collectRun(t, mk(CacheConfig{HostMemBytes: n * testSampleCost}, obs.NewRegistry()), 2)
	uncached := collectRun(t, mk(CacheConfig{}, uncachedReg), 2)
	if len(cached) != len(uncached) {
		t.Fatalf("cached run delivered %d samples, uncached %d", len(cached), len(uncached))
	}
	for i := range cached {
		if cached[i] != uncached[i] {
			t.Fatalf("delivery %d diverges: cached %s, uncached %s", i, cached[i], uncached[i])
		}
	}
	// The cache counters are registered only on cached loaders: an uncached
	// run's snapshot must be exactly the historical metric set.
	for _, c := range uncachedReg.Snapshot().Counters {
		if c.Name == "pipeline.cache.hits" || c.Name == "pipeline.cache.misses" || c.Name == "pipeline.cache.evictions" {
			t.Errorf("uncached run registered %s", c.Name)
		}
	}
}

// TestCacheMatchesResidencyModel ties the real cache to iosim's analytic
// residency model. A dataset that fits the node's memory budget predicts
// HostMem residency from epoch 1 (HitFraction 1), and the CacheFromNode-
// sized cache indeed serves the whole second epoch. A capacity-starved cache
// under a sequential traversal reproduces the model's other regime: the scan
// thrashes the LRU and every epoch stays cold (HitFraction of epoch 0).
func TestCacheMatchesResidencyModel(t *testing.T) {
	const n = 16
	node := iosim.Node{P: platform.CoriV100()}
	ids := iosim.Dataset{Samples: n, SampleBytes: testSampleCost}
	if lvl := node.ResidentLevel(ids, 1); lvl != iosim.HostMem {
		t.Fatalf("model: tiny dataset resident at %v, want host-mem", lvl)
	}
	if h := node.HitFraction(ids, 1); h != 1 {
		t.Fatalf("model: HitFraction = %v, want 1", h)
	}

	reg := obs.NewRegistry()
	l, err := New(testDataset(n), Config{
		Format: countFormat{},
		Batch:  4,
		Cache:  CacheFromNode(node, false),
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, err := l.Epoch(e).Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if hits := reg.Snapshot().Counter("pipeline.cache.hits"); hits != n {
		t.Errorf("fitting dataset: epoch-1 hits = %d, want %d (model predicts HostMem)", hits, n)
	}

	// Starved cache, sequential order, single read worker: by the time the
	// scan wraps around, the head of the schedule has been evicted — zero
	// hits, the model's cold regime.
	starvedReg := obs.NewRegistry()
	starved, err := New(testDataset(n), Config{
		Format: countFormat{},
		Batch:  4,
		Cache:  CacheConfig{HostMemBytes: 3 * testSampleCost},
		Stages: StageConfig{ReadWorkers: 1},
		Obs:    starvedReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		if _, err := starved.Epoch(e).Drain(); err != nil {
			t.Fatal(err)
		}
	}
	snap := starvedReg.Snapshot()
	if hits := snap.Counter("pipeline.cache.hits"); hits != 0 {
		t.Errorf("starved sequential scan: hits = %d, want 0", hits)
	}
	if ev := snap.Counter("pipeline.cache.evictions"); ev != 2*n-3 {
		t.Errorf("starved scan evictions = %d, want %d", ev, 2*n-3)
	}
}

func TestCacheFromNode(t *testing.T) {
	p := platform.CoriV100()
	n := iosim.Node{P: p}
	unstaged := CacheFromNode(n, false)
	if unstaged.HostMemBytes != p.MemBudgetBytes() {
		t.Errorf("host tier = %d, want the platform memory budget %d", unstaged.HostMemBytes, p.MemBudgetBytes())
	}
	if unstaged.NVMeBytes != 0 {
		t.Error("unstaged cache should have no NVMe tier")
	}
	staged := CacheFromNode(n, true)
	if staged.NVMeBytes != int64(p.Storage.NVMeTB*1e12) {
		t.Errorf("NVMe tier = %d, want %d", staged.NVMeBytes, int64(p.Storage.NVMeTB*1e12))
	}
	if !staged.enabled() || (CacheConfig{}).enabled() {
		t.Error("enabled() misclassifies")
	}
}

// verifyClean fails the test if the cache's byte accounting does not
// reconcile exactly at this point.
func verifyClean(t *testing.T, c *SampleCache, when string) {
	t.Helper()
	if err := c.VerifyAccounting(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestVerifyAccountingExactUnderFaults drives every mutation the cache knows
// — variable-size admissions, refresh-in-place, demotion, eviction,
// quarantine, and tier failover — and proves Σ entry bytes reconciles with
// the tier counters and budgets after each one. This is the ragged-domain
// accounting lock: with per-sample sizes all different, any missed add or
// subtract surfaces here.
func TestVerifyAccountingExactUnderFaults(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 64, NVMeBytes: 96, TierFailK: 1})
	verifyClean(t, c, "empty cache")
	for i := 0; i < 12; i++ {
		lb := tensor.New(tensor.F32, 1)
		lb.F32s[0] = float32(i)
		c.Put(i, make([]byte, 3+5*i), lb) // every resident a different size
		verifyClean(t, c, fmt.Sprintf("after put %d", i))
	}
	// Refresh a resident in place with a different payload size.
	c.Put(8, make([]byte, 2), nil)
	verifyClean(t, c, "after refresh")
	// Touch residents to reshuffle recency, then force more demotions.
	for i := 0; i < 12; i += 3 {
		c.Get(i)
		verifyClean(t, c, fmt.Sprintf("after get %d", i))
	}
	// Quarantine a resident through the tamper hook.
	c.SetTamper(&flipTamper{targets: map[int]bool{8: true}})
	c.Get(8)
	verifyClean(t, c, "after quarantine")
	// Kill the NVMe tier: the failover purge must keep accounting exact.
	tier := &stubTier{fail: true}
	c.SetTierFault(tier)
	c.Put(20, make([]byte, 70), nil) // host-oversized: demotion write fails, tier dies
	verifyClean(t, c, "after tier failover")
	if c.TierHealthy() {
		t.Fatal("tier survived a TierFailK=1 failure")
	}
	st := c.Stats()
	if st.Demotions == 0 || st.Evictions == 0 || st.Quarantined != 1 {
		t.Fatalf("test exercised too little: %+v", st)
	}
}

// TestVerifyAccountingDetectsDrift corrupts the cache's internal accounting
// directly and checks the verifier reports each class of discrepancy — the
// proof it can actually fail, not just pass.
func TestVerifyAccountingDetectsDrift(t *testing.T) {
	fresh := func() *SampleCache {
		c := NewSampleCache(CacheConfig{HostMemBytes: 100})
		putSample(c, 1)
		return c
	}
	breakers := map[string]func(c *SampleCache){
		"tier counter drift": func(c *SampleCache) { c.hostBytes++ },
		"entry size drift":   func(c *SampleCache) { c.entries[1].bytes--; c.hostBytes-- },
		"level mismatch":     func(c *SampleCache) { c.entries[1].level = iosim.NVMe },
		"unindexed resident": func(c *SampleCache) { delete(c.entries, 1) },
		"over budget":        func(c *SampleCache) { c.cfg.HostMemBytes = 1 },
	}
	for name, corrupt := range breakers {
		c := fresh()
		verifyClean(t, c, name+" (pre)")
		c.mu.Lock()
		corrupt(c)
		c.mu.Unlock()
		if err := c.VerifyAccounting(); err == nil {
			t.Errorf("%s went undetected", name)
		}
	}
}

// TierHealthy reports whether the NVMe tier is in service (true until
// TierFailK consecutive access failures, and again after a successful
// recovery probe).
func (c *SampleCache) TierHealthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.nvmeDead
}

// Len returns the number of resident samples.
func (c *SampleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
