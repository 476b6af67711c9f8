package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"scipp/internal/fault"
	"scipp/internal/tensor"
)

// switchTier is a TierFault whose every access fails while fail is set.
type switchTier struct{ fail bool }

func (s *switchTier) Access(int, bool) error {
	if s.fail {
		return fmt.Errorf("switch tier down")
	}
	return nil
}

// cacheModel is the reference SampleCache: a map of resident payloads plus
// one MRU-first index slice per tier, written from the doc comments rather
// than the implementation. rot is the pending set of a flipTamper-style
// hook (nil: no hook); tier is the shared switchTier (nil: no hook).
type cacheModel struct {
	cfg        CacheConfig
	blobs      map[int][]byte
	bytes      map[int]int64
	host, nvme []int
	dead       bool
	errs, wait int
	st         CacheStats
	rot        map[int]bool
	tier       *switchTier
}

func (m *cacheModel) drop(i int) bool {
	for _, l := range []*[]int{&m.host, &m.nvme} {
		for k, v := range *l {
			if v == i {
				*l = append((*l)[:k:k], (*l)[k+1:]...)
				delete(m.blobs, i)
				return true
			}
		}
	}
	return false
}

func (m *cacheModel) tierOK() bool {
	if m.tier == nil || !m.tier.fail {
		if m.tier != nil {
			m.errs = 0
		}
		return true
	}
	m.st.NVMeErrors++
	if m.errs++; !m.dead && m.errs >= m.cfg.TierFailK {
		m.dead, m.errs, m.wait = true, 0, m.cfg.TierProbeEvery
		m.st.TierFailovers++
		m.st.TierDropped += int64(len(m.nvme))
		for len(m.nvme) > 0 {
			m.drop(m.nvme[0])
		}
	}
	return false
}

func (m *cacheModel) get(i int) (blob []byte, hit, quarantined bool) {
	if m.dead && m.tier != nil {
		if m.wait--; m.wait <= 0 {
			m.wait = m.cfg.TierProbeEvery
			m.st.TierProbes++
			if !m.tier.fail {
				m.dead, m.errs = false, 0
				m.st.TierRecoveries++
			}
		}
	}
	blob, ok := m.blobs[i]
	onNVMe := slices.Contains(m.nvme, i)
	switch {
	case !ok:
	case onNVMe && !m.tierOK(): // a failover it trips purges i too
		m.drop(i)
	case m.rot != nil && m.rot[i] && len(blob) > 0:
		delete(m.rot, i)
		m.drop(i)
		m.st.Quarantined++
		m.st.Misses++
		return nil, false, true
	default:
		m.drop(i)
		m.blobs[i] = blob
		m.st.Hits++
		if onNVMe {
			m.st.NVMeHits++
			m.nvme = append([]int{i}, m.nvme...)
		} else {
			m.st.HostHits++
			m.host = append([]int{i}, m.host...)
		}
		return blob, true, false
	}
	m.st.Misses++
	return nil, false, false
}

func (m *cacheModel) put(i int, blob []byte, size int64) int {
	replaced := 0
	if m.drop(i) {
		replaced = 1
	}
	switch {
	case size <= m.cfg.HostMemBytes:
		m.host = append([]int{i}, m.host...)
	case size <= m.cfg.NVMeBytes && !m.dead && m.tierOK():
		m.nvme = append([]int{i}, m.nvme...)
	default:
		m.st.Evictions += int64(replaced)
		return replaced
	}
	m.blobs[i], m.bytes[i] = append([]byte(nil), blob...), size
	dropped := 0
	for m.sum(m.host) > m.cfg.HostMemBytes {
		v := m.host[len(m.host)-1]
		m.host = m.host[:len(m.host)-1]
		if m.bytes[v] <= m.cfg.NVMeBytes && !m.dead && m.tierOK() {
			m.nvme = append([]int{v}, m.nvme...)
			m.st.Demotions++
			continue
		}
		delete(m.blobs, v)
		m.st.Evictions++
		dropped++
	}
	for m.sum(m.nvme) > m.cfg.NVMeBytes {
		m.drop(m.nvme[len(m.nvme)-1])
		m.st.Evictions++
		dropped++
	}
	return dropped
}

func (m *cacheModel) sum(l []int) (n int64) {
	for _, i := range l {
		n += m.bytes[i]
	}
	return n
}

func (m *cacheModel) stats() CacheStats {
	s := m.st
	s.HostBytes, s.NVMeBytes = m.sum(m.host), m.sum(m.nvme)
	s.HostSamples, s.NVMeSamples = len(m.host), len(m.nvme)
	return s
}

// residency lists the real cache's tiers MRU first, for comparison with
// the model's slices.
func residency(c *SampleCache) (host, nvme []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.host.head; e != nil; e = e.next {
		host = append(host, e.index)
	}
	for e := c.nvme.head; e != nil; e = e.next {
		nvme = append(nvme, e.index)
	}
	return host, nvme
}

// FuzzSampleCacheModel is the reference-model differential test for the
// two-tier cache: the fuzz input becomes a configuration and a sequence of
// Put or Seal+Link (ragged sizes, optional label), Get or GetInto,
// SetTamper and SetTierFault operations, run against both the SampleCache
// and cacheModel. After every operation both must agree on what an
// admission dropped, what a lookup served (bytes, hit, quarantine; pins
// change none of them), the residency of each tier in recency order and
// every CacheStats field, and VerifyAccounting must hold. Demotion, eviction,
// re-Put replacement (including one that fits no tier), quarantine, tier
// death and probe-driven recovery are all reachable from a few bytes.
func FuzzSampleCacheModel(f *testing.F) {
	// Config bytes: host budget, NVMe budget, TierFailK, TierProbeEvery;
	// then op triples (op, a, b) — see the switch below.
	f.Add([]byte{40, 0, 0, 0, 0, 1, 20, 1, 1, 0})                             // no corruption
	f.Add([]byte{40, 0, 0, 0, 0, 1, 18, 2, 1, 0, 1, 1, 0, 0, 1, 18, 1, 1, 0}) // single rot, re-admit
	f.Add([]byte{16, 64, 0, 1, 0, 0, 20, 0, 1, 20, 0, 2, 20, 1, 0, 0, 1, 1, 0})
	f.Add([]byte{16, 64, 1, 2, 0, 0, 20, 0, 1, 20, 0, 2, 20, 3, 1, 0, 1, 0, 0,
		1, 1, 0, 3, 0, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 3, 20}) // tier death, recovery
	f.Add([]byte{8, 30, 0, 0, 0, 1, 6, 3, 1, 0, 0, 1, 50, 0, 1, 90})                      // re-Put fits only the dead tier, then nowhere
	f.Add([]byte{16, 0, 0, 0, 0, 8, 20, 0, 9, 20, 0, 10, 20, 1, 2, 1, 1, 2, 2, 1, 10, 0}) // sealed residents recycled by eviction, then GetInto
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := CacheConfig{HostMemBytes: 8, TierFailK: 1, TierProbeEvery: 1}
		if len(data) >= 4 {
			cfg.HostMemBytes = int64(data[0] % 64)
			cfg.NVMeBytes = int64(data[1] % 128)
			cfg.TierFailK = int(data[2]%3) + 1
			cfg.TierProbeEvery = int(data[3]%4) + 1
			data = data[4:]
		}
		c := NewSampleCache(cfg)
		m := &cacheModel{cfg: cfg, blobs: map[int][]byte{}, bytes: map[int]int64{}}
		for k := 0; k+3 <= len(data); k += 3 {
			op, a, b := data[k]%4, data[k+1], data[k+2]
			i := int(a % 8)
			desc := fmt.Sprintf("op %d: %d(%d, %d)", k/3, op, a, b)
			switch op {
			case 0: // Put index i (Seal, Link and Release it if a&8): b/2 % 48 blob bytes, a 4-byte label if b is odd
				blob := make([]byte, int(b/2)%48)
				for j := range blob {
					blob[j] = byte(k + 31*j)
				}
				var label *tensor.Tensor
				size := int64(len(blob))
				if b&1 == 1 {
					label = tensor.FromF32([]float32{float32(k)}, 1)
					size += 4
				}
				var got int
				if a&8 != 0 {
					r := c.Seal(i, blob, label)
					got = c.Link(r)
					c.Release(r)
				} else {
					got = c.Put(i, append([]byte(nil), blob...), label)
				}
				if want := m.put(i, blob, size); got != want {
					t.Fatalf("%s: Put dropped %d, model %d", desc, got, want)
				}
			case 1: // Get index i (b%3 == 0), or GetInto a destination that fits (1) or does not (2)
				want, wok, wq := m.get(i)
				var dst []byte
				switch b % 3 {
				case 1:
					dst = make([]byte, len(want))
				case 2:
					dst = bytes.Repeat([]byte{0xEE}, len(want)+1)
				}
				blob, _, ok, q := c.GetInto(i, dst)
				if ok != wok || q != wq || !bytes.Equal(blob, want) {
					t.Fatalf("%s: GetInto(%d-byte dst) = %v ok=%v q=%v, model %v ok=%v q=%v", desc, len(dst), blob, ok, q, want, wok, wq)
				}
				if ok && b%3 == 1 && !bytes.Equal(dst, want) {
					t.Fatalf("%s: a fitting destination holds %v, resident %v", desc, dst, want)
				}
				if b%3 == 2 && bytes.Count(dst, []byte{0xEE}) != len(dst) {
					t.Fatalf("%s: a destination that does not fit was written", desc)
				}
			case 2: // attach a hook rotting index i's next non-empty hit, or detach
				if b&1 == 1 {
					c.SetTamper(nil)
					m.rot = nil
					break
				}
				c.SetTamper(&flipTamper{targets: map[int]bool{i: true}})
				m.rot = map[int]bool{i: true}
			case 3: // attach the tier hook (b&1: failing), or detach it (b&2)
				if b&2 != 0 {
					c.SetTierFault(nil)
					m.tier = nil
					break
				}
				m.tier = &switchTier{fail: b&1 == 1}
				c.SetTierFault(m.tier)
			}
			host, nvme := residency(c)
			if !reflect.DeepEqual(host, nilIfEmpty(m.host)) || !reflect.DeepEqual(nvme, nilIfEmpty(m.nvme)) {
				t.Fatalf("%s: residency host %v nvme %v, model %v %v", desc, host, nvme, m.host, m.nvme)
			}
			if got, want := c.Stats(), m.stats(); got != want {
				t.Fatalf("%s: stats\n got %+v\nwant %+v", desc, got, want)
			}
			if err := c.VerifyAccounting(); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		}
	})
}

func nilIfEmpty(l []int) []int {
	if len(l) == 0 {
		return nil
	}
	return l
}

// TestPutReplacementThatFitsNoTierCountsEviction pins the re-Put branch
// where the new payload has nowhere to go: the old resident is already
// gone, so it counts as an eviction and in Put's return value.
func TestPutReplacementThatFitsNoTierCountsEviction(t *testing.T) {
	cases := []struct {
		name     string
		cfg      CacheConfig
		kill     bool // put the NVMe tier out of service first
		newBytes int
	}{
		{"fits no tier", CacheConfig{HostMemBytes: 16}, false, 32},
		{"fits only the dead NVMe tier", CacheConfig{HostMemBytes: 16, NVMeBytes: 64, TierFailK: 1}, true, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSampleCache(tc.cfg)
			c.Put(1, make([]byte, 8), nil)
			if tc.kill {
				c.SetTierFault(&switchTier{fail: true})
				c.Put(2, make([]byte, 32), nil) // NVMe admission fails: the tier dies
				if c.TierHealthy() {
					t.Fatal("tier survived a TierFailK=1 failure")
				}
			}
			if dropped := c.Put(1, make([]byte, tc.newBytes), nil); dropped != 1 {
				t.Errorf("replacement dropped %d, want 1 (the old resident)", dropped)
			}
			if _, _, ok, _ := c.Get(1); ok {
				t.Error("replaced sample still served")
			}
			if st := c.Stats(); st.Evictions != 1 || st.HostSamples != 0 {
				t.Errorf("stats = %+v, want 1 eviction and an empty host tier", st)
			}
			verifyClean(t, c, tc.name)
		})
	}
}

// TestCacheConcurrentOwnership is the ownership rule under -race: readers
// hammer hot indices while a writer re-Puts over them and forces
// evictions, and a seeded injector rots hits. Every served blob must be
// the bytes admitted for its (index, version), every corrupting event must
// be quarantined exactly once, and the accounting must reconcile. The hot
// indices are residents of the initial fill, and the writer starts only once
// every reader has been served, so the injector rots some hits however the
// goroutines are scheduled.
func TestCacheConcurrentOwnership(t *testing.T) {
	const (
		keys, readers, gets, puts = 16, 4, 3000, 600
		payload                   = 256
	)
	gen := func(i, ver int) []byte {
		b := make([]byte, payload)
		b[0], b[1] = byte(i), byte(ver)
		for k := 2; k < payload; k++ {
			b[k] = byte(i*7 + ver*13 + k)
		}
		return b
	}
	// Room for half the keys: the writer's cycling Puts keep evicting.
	c := NewSampleCache(CacheConfig{HostMemBytes: keys / 2 * payload})
	ci := fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 3, BitRot: 0.5, BitRotEvents: 4})
	c.SetTamper(ci)
	for i := 0; i < keys; i++ {
		c.Put(i, gen(i, 0), nil)
	}
	// read runs reader r's gets [from, to) and reports whether every
	// served blob was admitted bytes.
	read := func(r, from, to int) bool {
		for g := from; g < to; g++ {
			// Four hot indices, resident since the initial fill.
			blob, _, ok, _ := c.Get(keys - 4 + (g*(r+1)+r)%4)
			if ok && !bytes.Equal(blob, gen(int(blob[0]), int(blob[1]))) {
				t.Errorf("reader %d served bytes that were never admitted", r)
				return false
			}
		}
		return true
	}
	var wg, warm sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		warm.Add(1)
		go func(r int) {
			defer wg.Done()
			ok := read(r, 0, 64)
			warm.Done()
			if ok {
				read(r, 64, gets)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		warm.Wait()
		for p := 0; p < puts; p++ {
			i := p % keys
			c.Put(i, gen(i, p/keys+1), nil)
		}
	}()
	wg.Wait()
	st := c.Stats()
	if events := int64(len(ci.Log())); st.Quarantined != events || events == 0 {
		t.Errorf("Quarantined = %d, injector logged %d corrupting events", st.Quarantined, events)
	}
	if st.Hits+st.Misses != readers*gets || st.Hits != st.HostHits+st.NVMeHits {
		t.Errorf("hit counters do not reconcile: %+v (want %d gets)", st, readers*gets)
	}
	verifyClean(t, c, "after concurrent run")
}

// TestCacheRecycledResidentOwnership is TestCacheConcurrentOwnership for
// sealed residents, whose slabs the cache recycles. Each reader GetIntos
// its own hot sample into its own buffer while a writer re-seals the hot
// samples over them and churns cold samples through the NVMe tier's LRU;
// a seeded injector rots hits. The writer is timed by a tamper hook that
// wraps the injector: a hit offers the writer its index while the reader
// still holds the mutex, and the writer then links a replacement, which
// retires the resident that reader is about to copy, and seals the next
// replacement at once, into the slab the pool hands back first. The hot
// samples fill host memory exactly and the cold ones are too big for it,
// so a hot sample leaves the index only when its own reader quarantines
// it, and that reader re-admits it at once. A reader's plain miss can then
// only be a copy pass that saw its slab reused under it, and with the pin
// rules held there is none. Every served dst must be the bytes admitted
// for its (index, version), every corrupting event must be quarantined
// exactly once, and the accounting must reconcile.
func TestCacheRecycledResidentOwnership(t *testing.T) {
	const (
		hot, vers, gets, colds = 2, 4, 200, 4
		payload                = 1 << 20
		coldPayload            = hot*payload + payload
	)
	// The admitted bytes of every (index, version), built once so that a
	// writer step is one seal and a reader step one copy pass.
	gen := func(i, ver, n int) []byte {
		b := make([]byte, n)
		b[0], b[1] = byte(i), byte(ver)
		for k := 2; k < n; k++ {
			b[k] = byte(i*7 + ver*13 + k)
		}
		return b
	}
	var admitted [hot][vers][]byte
	for i := range admitted {
		for v := range admitted[i] {
			admitted[i][v] = gen(i, v, payload)
		}
	}
	cold := gen(hot, 0, coldPayload)
	c := NewSampleCache(CacheConfig{HostMemBytes: hot * payload, NVMeBytes: 2 * coldPayload})
	ci := fault.NewCacheInjector(fault.CacheFaultConfig{Seed: 3, BitRot: 0.5, BitRotEvents: 4})
	hits := make(chan int)
	c.SetTamper(&offerTamper{inner: ci, hits: hits})
	admit := func(i int, src []byte) {
		r := c.Seal(i, src, nil)
		c.Link(r)
		c.Release(r)
	}
	for i := 0; i < hot; i++ {
		admit(i, admitted[i][0])
	}
	var readers, writer sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < hot; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			dst := make([]byte, payload)
			for g := 0; g < gets; g++ {
				_, _, ok, quarantined := c.GetInto(r, dst)
				switch {
				case ok && (dst[0] != byte(r) || dst[1] >= vers || !bytes.Equal(dst, admitted[r][dst[1]])):
					t.Errorf("reader %d served bytes that were never admitted", r)
					return
				case quarantined:
					admit(r, admitted[r][0])
				case !ok:
					t.Errorf("reader %d: get %d missed a sample that never left the cache", r, g)
					return
				}
			}
		}(r)
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		var next [hot]*Resident
		for i := range next {
			next[i] = c.Seal(i, admitted[i][1], nil)
		}
		for p := 0; ; p++ {
			select {
			case <-stop:
				for _, r := range next {
					c.Link(r)
					c.Release(r)
				}
				return
			case i := <-hits:
				c.Link(next[i])
				c.Release(next[i])
				next[i] = c.Seal(i, admitted[i][p%(vers-1)+1], nil)
			}
			if p%4 == 3 {
				admit(hot+p/4%colds, cold)
			}
		}
	}()
	readers.Wait()
	close(stop)
	writer.Wait()
	st := c.Stats()
	if events := int64(len(ci.Log())); st.Quarantined != events || events == 0 {
		t.Errorf("Quarantined = %d, injector logged %d corrupting events", st.Quarantined, events)
	}
	if st.Hits+st.Misses != hot*gets || st.Misses != st.Quarantined || st.Hits != st.HostHits {
		t.Errorf("hit counters do not reconcile: %+v (want %d gets)", st, hot*gets)
	}
	if st.Evictions == 0 {
		t.Error("the cold samples never evicted")
	}
	verifyClean(t, c, "after concurrent run")
	free := map[*Resident]bool{}
	for _, l := range c.pool.free {
		for _, r := range l {
			if free[r] || c.entries[r.index] == r {
				t.Fatalf("resident %p of sample %d recycled twice, or while indexed", r, r.index)
			}
			free[r] = true
		}
	}
}

// offerTamper is a CacheTamper that offers each hit's index on hits, if a
// receiver is waiting, before passing the hit to inner.
type offerTamper struct {
	inner CacheTamper
	hits  chan int
}

func (o *offerTamper) Rots(index int) bool {
	select {
	case o.hits <- index:
	default:
	}
	return o.inner.Rots(index)
}

func (o *offerTamper) Tamper(index int, blob []byte) bool { return o.inner.Tamper(index, blob) }
