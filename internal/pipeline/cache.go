package pipeline

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"scipp/internal/fp16"
	"scipp/internal/iosim"
	"scipp/internal/tensor"
)

// CacheConfig sizes the loader's storage-hierarchy sample cache: a host
// CPU-memory tier with an NVMe spill tier below it, mirroring internal/
// iosim's residency model ("if the samples assigned to a node fit in the
// host CPU memory, a sample traverses step 1 & 2 once, while step 3 & 4 are
// repeated"). Every admission checksums the sample (both tiers) and every
// hit verifies it, quarantining corrupted entries so they re-decode from
// the dataset instead of poisoning a batch. The zero value disables
// caching, keeping every epoch a cold traversal of the Dataset.
type CacheConfig struct {
	// HostMemBytes is the host-memory tier capacity; 0 disables the tier.
	HostMemBytes int64
	// NVMeBytes is the NVMe spill tier capacity; 0 disables the tier.
	// Host-tier LRU evictions demote into it instead of dropping.
	NVMeBytes int64
	// TierFailK is how many consecutive NVMe-tier access failures mark the
	// tier dead and fail the cache over to HostMem-only degraded mode
	// (default 3). Failover drops the tier's residents (their media is
	// unreadable) and suspends demotions; recovery is probed on the Get
	// path and restores two-tier operation.
	TierFailK int
	// TierProbeEvery is how many Get calls pass between recovery probes of
	// a dead NVMe tier (default 32).
	TierProbeEvery int
}

func (c CacheConfig) enabled() bool { return c.HostMemBytes > 0 || c.NVMeBytes > 0 }

func (c CacheConfig) withTierDefaults() CacheConfig {
	if c.TierFailK <= 0 {
		c.TierFailK = 3
	}
	if c.TierProbeEvery <= 0 {
		c.TierProbeEvery = 32
	}
	return c
}

// CacheFromNode sizes a cache from a simulated node's storage hierarchy:
// the host tier gets the platform's per-node memory budget, and — for
// staged datasets — the NVMe tier gets the node NVMe capacity. This is the
// bridge from iosim's analytic residency model to the real data path.
func CacheFromNode(n iosim.Node, staged bool) CacheConfig {
	cfg := CacheConfig{HostMemBytes: n.P.MemBudgetBytes()}
	if staged {
		cfg.NVMeBytes = int64(n.P.Storage.NVMeTB * 1e12)
	}
	return cfg
}

// CacheStats is a point-in-time snapshot of a SampleCache's accounting.
type CacheStats struct {
	// Hits and Misses count Get outcomes; HostHits/NVMeHits split the hits
	// by the tier that served them.
	Hits, Misses, HostHits, NVMeHits int64
	// Demotions counts host-tier LRU evictions that moved into the NVMe
	// tier; Evictions counts samples dropped from the cache entirely.
	Demotions, Evictions int64
	// Quarantined counts hits whose payload failed integrity verification:
	// the entry was dropped and the Get reported a miss, forcing a clean
	// re-read from the dataset. Each corrupted resident counts once per
	// corrupting event, so the tally reconciles against a fault injector's
	// log.
	Quarantined int64
	// NVMeErrors counts failed NVMe-tier accesses (reads of residents and
	// demotion writes; recovery probes are not errors). Each reconciles
	// one-to-one against a tier injector's non-probe log entries.
	NVMeErrors int64
	// TierFailovers counts transitions into HostMem-only degraded mode
	// (TierFailK consecutive NVMe errors); TierRecoveries counts the
	// probe-driven restorations of two-tier operation; TierProbes counts
	// the recovery probes issued while the tier was dead; TierDropped
	// counts residents lost to a failover (their media became unreadable).
	TierFailovers, TierRecoveries, TierProbes, TierDropped int64
	// HostBytes/NVMeBytes and HostSamples/NVMeSamples are current occupancy.
	HostBytes, NVMeBytes     int64
	HostSamples, NVMeSamples int
}

// Resident is one cached sample: its sealed bytes, admission checksum,
// tier and recency links. A Resident drawn by Seal and not yet linked is
// the caller's alone; once linked it is the cache's, and it comes back to
// the cache's residentPool, slab and all, when it has left the index and
// no reader pins it.
type Resident struct {
	index int
	// slab holds the bytes the seal copied (or, for Put, the blob Put
	// adopted). It never changes while the Resident is pinned or indexed.
	slab []byte
	// blob is what hits serve: slab, or the tamper hook's copy-on-write
	// replacement. Guarded by SampleCache.mu.
	blob  []byte
	label *tensor.Tensor
	// sum is the admission-time checksum over the sealed bytes and label,
	// verified on every hit.
	sum   uint64
	bytes int64
	level iosim.Level // HostMem or NVMe
	// prev and next thread the resident through its tier's recency list.
	prev, next *Resident
	// escaped marks a slab the collector must free rather than the pool:
	// one Put adopted, or one a hit handed out uncopied. Set under
	// SampleCache.mu while indexed; read by whichever side recycles.
	escaped bool
	// ref is the pin count plus retiredBit, set once the resident has
	// left the index (or was never linked into it). The side that brings
	// it to retiredBit alone recycles the resident, exactly once.
	ref atomic.Uint32
}

// retiredBit marks a Resident's ref once the resident is out of the index.
const retiredBit = 1 << 31

// Bytes returns the sealed bytes. They hold still while the caller keeps
// the pin Seal gave it.
func (r *Resident) Bytes() []byte { return r.slab }

// lru is a tier's recency list, threaded through its residents' prev and
// next links: head is the most recently used.
type lru struct {
	head, tail *Resident
	n          int
}

func (l *lru) pushFront(e *Resident) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.n++
}

func (l *lru) remove(e *Resident) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lru) moveToFront(e *Resident) {
	if l.head != e {
		l.remove(e)
		l.pushFront(e)
	}
}

// maxFreeResidents bounds each capacity class's freelist in a
// residentPool. A cache in steady churn retires about one resident per
// seal, so the freelist holds the few that pinned readers or concurrent
// seals keep apart; the bound only stops a cache whose sample sizes move
// between classes from hoarding slabs.
const maxFreeResidents = 16

// residentPool recycles a cache's Residents together with their slabs,
// keyed by the slab's byte capacity class (classElems over bytes), so a
// cache in steady churn seals into the memory its evictions release and
// allocates nothing per miss. It is safe for concurrent use: seals draw
// outside the cache mutex, and retirements file under it or from an
// unpinning reader.
type residentPool struct {
	mu   sync.Mutex
	free map[int][]*Resident
}

// getResident returns a Resident whose slab holds n bytes of unspecified
// contents; the caller fills in every other field.
func (p *residentPool) getResident(n int) *Resident {
	class := classElems(n)
	p.mu.Lock()
	if free := p.free[class]; len(free) > 0 {
		r := free[len(free)-1]
		free[len(free)-1] = nil
		p.free[class] = free[:len(free)-1]
		p.mu.Unlock()
		r.slab = r.slab[:n]
		return r
	}
	p.mu.Unlock()
	return &Resident{slab: make([]byte, n, class)}
}

// putResident files r for reuse, clearing what it referenced. Only a
// retired, unpinned, unescaped resident may come back.
func (p *residentPool) putResident(r *Resident) {
	class := capClass(cap(r.slab))
	r.blob, r.label, r.prev, r.next = nil, nil, nil, nil
	p.mu.Lock()
	if len(p.free[class]) < maxFreeResidents {
		p.free[class] = append(p.free[class], r)
	}
	p.mu.Unlock()
}

// CacheTamper corrupts resident cache payloads — the hook a seeded bit-rot
// injector (fault.CacheInjector) attaches through SetTamper to model silent
// corruption on the staged NVMe/host-memory tiers. Rots is asked on every
// hit, under the cache mutex and before any copy is made, whether this hit
// of sample index may rot; a hit it declines costs no copy. Only then is
// Tamper called, before verification, with a private copy of the resident
// blob, and it reports whether it modified that copy. A reported change is
// copy-on-write: the modified copy replaces the resident, so a reader
// already holding the old slice keeps clean bytes while the hit that rotted
// the entry verifies and quarantines it.
type CacheTamper interface {
	Rots(index int) bool
	Tamper(index int, blob []byte) bool
}

// TierFault is the NVMe tier's fault domain — the hook a seeded tier-level
// injector (fault.TierInjector) attaches through SetTierFault to model IO
// errors, degraded bandwidth, and whole-tier death on the spill tier. The
// cache consults it on every NVMe access: reading resident sample index
// (write false), demoting or admitting it (write true), and probing a dead
// tier for recovery (index -1). A non-nil error fails the access; a failed
// read or write drops the entry (its media copy is unreadable) and counts
// toward the tier's health, while a failed probe just leaves the tier dead.
type TierFault interface {
	Access(index int, write bool) error
}

// cacheSum is the integrity checksum over a resident sample's payload: a
// CRC-32C of the blob, then the label's dtype byte, then the label's raw
// element bytes, in the high 32 bits, and a CRC-32/IEEE of the same stream
// in the low 32 bits. cacheSumInto computes it; cacheSum is its form
// without a copy.
//
// The two generator polynomials are coprime (TestCacheSumGeneratorsCoprime
// checks their GF(2) gcd), so the pair is one cyclic code of degree 64: its
// remainder is the stream's remainder modulo the product polynomial. That
// makes the guarantees exact rather than statistical for the corruption
// bit rot produces — every burst of 64 bits or fewer is detected, and
// every 1-3-bit flip at any length a resident reaches — and a random
// corruption escapes with probability 2^-64.
//
// History: the first checksum folded raw words in with xor-multiply, and
// FuzzCacheIntegrity found a two-word XOR cancellation in it (corrupting
// word k shifts the state by some delta, and XOR-ing that same delta into
// word k+1 cancels it); an xor-multiply-xorshift stir fell to the same
// search. A splitmix64 avalanche of every input word fixed that, but three
// loop-carried multiplies per word bound it to about 3.9 GB/s, and splitting
// it into independent lanes did not help: the multiplies bound it by
// throughput, not latency. A CRC is linear, so it has no such cancellation:
// an error escapes only if its polynomial is a multiple of the generator
// product. Both crashers stay committed as regression seeds. The two CRCs
// then ran as two hash/crc32 passes (CRC-32C on the SSE4.2 instruction,
// IEEE on a 128-bit carry-less fold), and a data-service hit added a third
// pass, its copy-out. fp16.CRCPair now folds both CRCs from each 64-byte
// load on ZMM registers, copying as it goes: a 262 KB resident sums in about
// a quarter of the two passes' time (BenchmarkCacheSum), and a verified hit
// reads the resident once.
func cacheSum(blob []byte, label *tensor.Tensor) uint64 {
	return cacheSumInto(nil, blob, label)
}

// cacheSumInto is cacheSum, copying blob into dst on the same pass when
// dst is non-nil (it then holds len(blob) bytes).
//
//scipp:hotpath
func cacheSumInto(dst, blob []byte, label *tensor.Tensor) uint64 {
	var c, ieee uint32
	if dst == nil && len(blob) < 64 {
		// Below one block CRCPair is these two updates; a weather station
		// series (24 B) is short enough that its call frame shows.
		c, ieee = crc32.Update(0, castagnoli, blob), crc32.Update(0, crc32.IEEETable, blob)
	} else {
		c, ieee = fp16.CRCPair(dst, blob, 0, 0)
	}
	if label != nil {
		dt := byte(label.DT)
		c = crcByte(c, castagnoli, dt)
		ieee = crcByte(ieee, crc32.IEEETable, dt)
		c, ieee = fp16.CRCPair(nil, tensor.RawBytes(label), c, ieee)
	}
	return uint64(c)<<32 | uint64(ieee)
}

// castagnoli is the CRC-32C table crcByte steps through.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcByte extends crc, as crc32.Update would, by the one byte b. Feeding a
// byte through a slice would move it to the heap; this keeps cacheSum free
// of allocations.
func crcByte(crc uint32, tab *crc32.Table, b byte) uint32 {
	crc = ^crc
	crc = tab[byte(crc)^b] ^ crc>>8
	return ^crc
}

// SampleCache is the capacity-bounded sample store behind CacheStage: a
// two-tier (HostMem over NVMe) LRU keyed by dataset index. Eviction is
// deterministic in the access order — the least recently used host entry
// demotes to the NVMe tier, and the least recently used NVMe entry drops —
// so a given sequence of Get/Put calls always leaves the same residency.
// It is safe for concurrent use by the read-stage workers; the cache (and
// therefore the residency it builds up during epoch 0) is shared by every
// epoch of its Loader.
//
// Admission is two halves. The seal (Seal) draws a Resident and its slab
// from the cache's residentPool and copies the sample into it on the
// checksum's own pass, outside the mutex; the link (Link) indexes it,
// places it in a tier and evicts, under the mutex. Put is the two halves
// back to back, with a seal that adopts its blob instead of copying it.
//
// Ownership: resident bytes never change after admission. Get hands out
// the resident slice uncopied, and the tamper hook works on a copy that
// replaces the resident rather than writing into it. That is what lets
// GetInto verify a clean hit's checksum after releasing the mutex: the
// slice it verifies is the slice it serves, and no other goroutine can
// write to it. Slabs are recycled, so "never change" is held up by pins:
//   - GetInto pins its resident under the mutex and unpins only after its
//     pass and any late-mismatch relock;
//   - Seal's caller holds a pin until Release (a data-service flight keeps
//     it until its last joiner has copied);
//   - a hit that hands the slice out uncopied marks the resident escaped,
//     and an escaped slab goes to the collector, not the pool;
//   - a resident goes back to the pool only once it has left the index
//     and its last pin is gone, whichever comes second.
type SampleCache struct {
	cfg  CacheConfig
	pool residentPool

	mu        sync.Mutex
	tamper    CacheTamper // nil outside fault-injection runs
	tier      TierFault   // nil outside fault-injection runs
	nvmeDead  bool        // HostMem-only degraded mode: demotions suspended
	nvmeErrs  int         // consecutive NVMe access failures toward TierFailK
	probeIn   int         // Get calls until the next recovery probe
	entries   map[int]*Resident
	host      lru
	nvme      lru
	hostBytes int64
	nvmeBytes int64
	stats     CacheStats
}

// NewSampleCache returns an empty cache with the given tier capacities.
func NewSampleCache(cfg CacheConfig) *SampleCache {
	return &SampleCache{
		cfg:     cfg.withTierDefaults(),
		pool:    residentPool{free: make(map[int][]*Resident)},
		entries: make(map[int]*Resident),
	}
}

// SetTamper installs (or, with nil, removes) the cache's corruption hook.
// Chaos harnesses attach a fault.CacheInjector here so seeded bit rot hits
// the resident copies exactly where real media corruption would.
func (c *SampleCache) SetTamper(t CacheTamper) {
	c.mu.Lock()
	c.tamper = t
	c.mu.Unlock()
}

// SetTierFault installs (or, with nil, removes) the NVMe tier's fault hook.
// Chaos harnesses attach a fault.TierInjector here so seeded tier faults
// hit exactly the accesses a degraded or dying device would fail.
func (c *SampleCache) SetTierFault(t TierFault) {
	c.mu.Lock()
	c.tier = t
	c.mu.Unlock()
}

// nvmeReadLocked performs the tier access for a Get served from NVMe. It
// reports whether the read succeeded; on failure the entry is dropped (its
// media copy is unreadable) and the tier's health is charged.
func (c *SampleCache) nvmeReadLocked(e *Resident) bool {
	if c.tier == nil {
		return true
	}
	if err := c.tier.Access(e.index, false); err != nil {
		c.noteNVMeErrorLocked()
		if c.entries[e.index] == e { // a failover this error tripped already purged it
			c.removeLocked(e)
		}
		return false
	}
	c.nvmeErrs = 0
	return true
}

// nvmeWriteLocked performs the tier access for a demotion or admission into
// NVMe. It reports whether the write succeeded; a failure charges the
// tier's health and the caller drops the entry instead.
func (c *SampleCache) nvmeWriteLocked(index int) bool {
	if c.tier == nil {
		return true
	}
	if err := c.tier.Access(index, true); err != nil {
		c.noteNVMeErrorLocked()
		return false
	}
	c.nvmeErrs = 0
	return true
}

// noteNVMeErrorLocked charges one failed NVMe access toward the tier's
// health, failing the cache over to HostMem-only mode at TierFailK
// consecutive failures. The failover drops every NVMe resident — the tier
// that held them is unreadable — and suspends demotions; the entries
// re-decode from the dataset on their next access, so output stays
// bit-identical.
func (c *SampleCache) noteNVMeErrorLocked() {
	c.stats.NVMeErrors++
	c.nvmeErrs++
	if c.nvmeDead || c.nvmeErrs < c.cfg.TierFailK {
		return
	}
	c.nvmeDead = true
	c.nvmeErrs = 0
	c.probeIn = c.cfg.TierProbeEvery
	c.stats.TierFailovers++
	for c.nvme.tail != nil {
		c.removeLocked(c.nvme.tail)
		c.stats.TierDropped++
	}
}

// probeTierLocked issues a recovery probe against a dead NVMe tier every
// TierProbeEvery Get calls. A successful probe restores two-tier operation:
// demotions resume and the tier refills through the normal LRU flow, so the
// recovered cache serves the same bytes it would have without the outage.
func (c *SampleCache) probeTierLocked() {
	if !c.nvmeDead || c.tier == nil {
		return
	}
	c.probeIn--
	if c.probeIn > 0 {
		return
	}
	c.probeIn = c.cfg.TierProbeEvery
	c.stats.TierProbes++
	if c.tier.Access(-1, false) == nil {
		c.nvmeDead = false
		c.nvmeErrs = 0
		c.stats.TierRecoveries++
	}
}

// Get returns sample i if resident, refreshing its recency within its tier.
// It is GetInto with no destination, so the resident it serves escapes: the
// caller may hold the slice for as long as it likes, and the collector, not
// the cache's pool, frees it.
func (c *SampleCache) Get(i int) (blob []byte, label *tensor.Tensor, ok, quarantined bool) {
	return c.GetInto(i, nil)
}

// GetInto returns sample i if resident, refreshing its recency within its
// tier, and copies the resident blob into dst when len(dst) is the blob's
// length: a caller that must own the bytes gets them on the checksum's own
// pass, one read of the resident and one write of dst. The returned blob
// is then dst. A caller whose dst did not fit gets the resident itself,
// uncopied, which marks it escaped, and sees the misfit from its length.
// The served payload is verified against its admission checksum: a
// corrupted entry is quarantined — dropped and counted, with quarantined
// reporting the drop — and the Get is a miss, so the caller re-reads the
// sample from the dataset and batch output stays bit-identical to an
// uncorrupted run. On a miss dst holds no promise: it may hold some or all
// of a rejected resident's bytes.
//
// A clean hit takes the mutex once: lookup, NVMe tier access, tamper hook,
// recency, hit counters and a pin under it, the checksum pass (and copy)
// after it. A hit the tamper hook rotted is also verified before unlocking,
// so each corrupting event is quarantined by the Get that caused it and no
// other reader ever sees the rotten resident. A mismatch found after
// unlocking (resident bytes changed behind the ownership rule) relocks,
// reverses the hit, and quarantines the entry only if it is still the one
// verified; a reader that finds it already gone counts a plain miss. The
// pin is dropped only after that relock, so the entry it compares against
// cannot have been recycled into another sample's.
//
//scipp:hotpath
func (c *SampleCache) GetInto(i int, dst []byte) (blob []byte, label *tensor.Tensor, ok, quarantined bool) {
	c.mu.Lock()
	c.probeTierLocked()
	e, found := c.entries[i]
	if !found {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, nil, false, false
	}
	if e.level == iosim.NVMe && !c.nvmeReadLocked(e) {
		// The tier failed the read: the resident is gone, so the caller
		// re-reads from the dataset and output stays bit-identical.
		c.stats.Misses++
		c.mu.Unlock()
		return nil, nil, false, false
	}
	if c.tamper != nil && c.tamperLocked(e) && cacheSum(e.blob, e.label) != e.sum {
		c.removeLocked(e)
		c.stats.Quarantined++
		c.stats.Misses++
		c.mu.Unlock()
		return nil, nil, false, true
	}
	level := e.level
	c.stats.Hits++
	if level == iosim.HostMem {
		c.stats.HostHits++
		c.host.moveToFront(e)
	} else {
		c.stats.NVMeHits++
		c.nvme.moveToFront(e)
	}
	blob, label, sum := e.blob, e.label, e.sum
	if len(dst) != len(blob) {
		dst = nil
		e.escaped = true
	}
	e.ref.Add(1)
	c.mu.Unlock()
	if cacheSumInto(dst, blob, label) == sum {
		c.Release(e)
		if dst != nil {
			return dst, label, true, false
		}
		return blob, label, true, false
	}
	c.mu.Lock()
	c.stats.Hits--
	if level == iosim.HostMem {
		c.stats.HostHits--
	} else {
		c.stats.NVMeHits--
	}
	c.stats.Misses++
	gone := c.entries[i] != e
	if !gone {
		c.removeLocked(e)
		c.stats.Quarantined++
	}
	c.mu.Unlock()
	c.Release(e)
	return nil, nil, false, !gone
}

// tamperLocked asks the tamper hook whether this hit rots and, only if it
// may, offers the hook a copy of e's blob; if the hook reports a change, it
// installs the copy as the resident (copy-on-write: the slice earlier hits
// handed out is never written, and the slab stays the pool's). It reports
// the change.
func (c *SampleCache) tamperLocked(e *Resident) bool {
	if !c.tamper.Rots(e.index) {
		return false
	}
	// Chaos runs only: the hook must never write into a served resident.
	cp := append([]byte(nil), e.blob...)
	if !c.tamper.Tamper(e.index, cp) {
		return false
	}
	e.blob = cp
	return true
}

// Seal is admission's first half, run outside the mutex: it draws a
// Resident from the cache's pool, copies src into its slab and takes the
// admission checksum over src and label on the same pass. The cache never
// aliases src, so rot of a resident can never reach the caller's memory;
// label is kept by reference. The returned Resident carries one pin for
// the caller: Link admits it, and Release drops the pin once the caller is
// done reading Bytes.
//
//scipp:hotpath
func (c *SampleCache) Seal(i int, src []byte, label *tensor.Tensor) *Resident {
	r := c.pool.getResident(len(src))
	r.sum = cacheSumInto(r.slab, src, label)
	r.fill(i, label)
	return r
}

// fill sets a just-sealed resident's index, served bytes, size and the
// sealer's pin.
func (r *Resident) fill(i int, label *tensor.Tensor) {
	r.index, r.blob, r.label, r.escaped = i, r.slab, label, false
	r.bytes = int64(len(r.slab))
	if label != nil {
		r.bytes += int64(label.Bytes())
	}
	r.ref.Store(1)
}

// Release drops one pin of r — the one Seal gave its caller — recycling r
// if that left it retired and unpinned.
func (c *SampleCache) Release(r *Resident) {
	if r.ref.Add(^uint32(0)) == retiredBit {
		c.recycle(r)
	}
}

// retire marks r as out of the index, recycling it if nothing pins it.
func (c *SampleCache) retire(r *Resident) {
	if r.ref.Add(retiredBit) == retiredBit {
		c.recycle(r)
	}
}

// recycle hands a retired, unpinned resident back to the pool, unless its
// slab escaped: that one the collector frees.
func (c *SampleCache) recycle(r *Resident) {
	if !r.escaped {
		c.pool.putResident(r)
	}
}

// Put inserts sample i, evicting least-recently-used residents as needed:
// a seal that adopts blob instead of copying it, then Link. The resident
// is blob itself, so Put takes ownership of it — the caller must never
// write to it again — and the collector, not the pool, frees it. Put
// returns the number of samples dropped from the cache by this call.
func (c *SampleCache) Put(i int, blob []byte, label *tensor.Tensor) int {
	r := &Resident{slab: blob, sum: cacheSum(blob, label)}
	r.fill(i, label)
	r.escaped = true
	dropped := c.Link(r)
	c.Release(r)
	return dropped
}

// Link is admission's second half: it indexes a sealed resident under the
// mutex, evicting least-recently-used residents as needed. New samples
// land in the host tier (falling through to NVMe when they cannot fit host
// memory at all); overflow demotes host LRU entries to the NVMe tier and
// drops NVMe LRU entries. Samples larger than every tier are not cached.
// Linking a resident index replaces its payload; if the new payload fits
// no tier in service, the old resident is dropped and counted as an
// eviction. Link returns the number of samples dropped from the cache by
// this call, so callers can feed eviction metrics without re-reading
// shared state. Each sealed resident is linked at most once, and the
// caller's pin is untouched either way.
func (c *SampleCache) Link(r *Resident) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	replaced := 0
	if old, ok := c.entries[r.index]; ok {
		c.removeLocked(old)
		replaced = 1
	}
	switch {
	case r.bytes <= c.cfg.HostMemBytes:
		r.level = iosim.HostMem
		c.host.pushFront(r)
		c.hostBytes += r.bytes
	case r.bytes <= c.cfg.NVMeBytes && !c.nvmeDead && c.nvmeWriteLocked(r.index):
		r.level = iosim.NVMe
		c.nvme.pushFront(r)
		c.nvmeBytes += r.bytes
	default:
		// Fits nowhere, or only in an NVMe tier that is out of service:
		// uncacheable, and a resident it was meant to replace is gone.
		c.retire(r)
		c.stats.Evictions += int64(replaced)
		return replaced
	}
	c.entries[r.index] = r
	return c.rebalanceLocked()
}

// rebalanceLocked restores both tier capacity invariants: host overflow
// demotes LRU entries to NVMe (or drops them when no NVMe tier fits, or
// while the tier is failed over and demotions are suspended), then NVMe
// overflow drops LRU entries. It returns the number of drops.
func (c *SampleCache) rebalanceLocked() int {
	dropped := 0
	for c.hostBytes > c.cfg.HostMemBytes {
		e := c.host.tail
		if e.bytes <= c.cfg.NVMeBytes && !c.nvmeDead && c.nvmeWriteLocked(e.index) {
			c.host.remove(e)
			c.hostBytes -= e.bytes
			e.level = iosim.NVMe
			c.nvme.pushFront(e)
			c.nvmeBytes += e.bytes
			c.stats.Demotions++
			continue
		}
		c.removeLocked(e)
		c.stats.Evictions++
		dropped++
	}
	for c.nvmeBytes > c.cfg.NVMeBytes {
		c.removeLocked(c.nvme.tail)
		c.stats.Evictions++
		dropped++
	}
	return dropped
}

// removeLocked detaches e from its tier and the index, and retires it.
func (c *SampleCache) removeLocked(e *Resident) {
	if e.level == iosim.HostMem {
		c.host.remove(e)
		c.hostBytes -= e.bytes
	} else {
		c.nvme.remove(e)
		c.nvmeBytes -= e.bytes
	}
	delete(c.entries, e.index)
	c.retire(e)
}

// VerifyAccounting re-derives the cache's byte accounting from the resident
// entries themselves and checks it against the incrementally maintained
// counters and the configured budgets. With per-entry sizes varying sample
// by sample (the ragged domains), a single missed add or subtract in the
// Put/demote/evict flow silently drifts the budget enforcement; this walk
// proves, at any quiescent point, that Σ entry bytes per tier equals the
// tier counter, every entry's recorded size matches its payload, each list
// resident is indexed under its own key at its recorded level, and neither
// tier exceeds its capacity. It reports the first discrepancy found; tests
// call it after every mutation batch.
//
//lint:ignore deadcode test oracle: the cache, cache-model and dataserve tests check the byte accounting with it
func (c *SampleCache) VerifyAccounting() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tiers := []struct {
		name  string
		l     *lru
		level iosim.Level
		sum   int64
		cap   int64
	}{
		{"host", &c.host, iosim.HostMem, c.hostBytes, c.cfg.HostMemBytes},
		{"nvme", &c.nvme, iosim.NVMe, c.nvmeBytes, c.cfg.NVMeBytes},
	}
	residents := 0
	for _, tier := range tiers {
		var sum int64
		n := 0
		for e := tier.l.head; e != nil; e = e.next {
			if e.level != tier.level {
				return fmt.Errorf("cache: sample %d on the %s list records level %v", e.index, tier.name, e.level)
			}
			want := int64(len(e.blob))
			if e.label != nil {
				want += int64(e.label.Bytes())
			}
			if e.bytes != want {
				return fmt.Errorf("cache: sample %d accounts %d bytes, payload is %d", e.index, e.bytes, want)
			}
			if c.entries[e.index] != e {
				return fmt.Errorf("cache: sample %d resident on the %s list but not indexed", e.index, tier.name)
			}
			sum += e.bytes
			n++
		}
		if n != tier.l.n {
			return fmt.Errorf("cache: %s list links %d residents, counts %d", tier.name, n, tier.l.n)
		}
		residents += n
		if sum != tier.sum {
			return fmt.Errorf("cache: %s tier counter %d, Σ entry bytes %d", tier.name, tier.sum, sum)
		}
		if sum > tier.cap {
			return fmt.Errorf("cache: %s tier holds %d bytes over its %d budget", tier.name, sum, tier.cap)
		}
	}
	if residents != len(c.entries) {
		return fmt.Errorf("cache: %d list residents, %d indexed", residents, len(c.entries))
	}
	return nil
}

// Stats returns a snapshot of the cache's accounting.
func (c *SampleCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.HostBytes, s.NVMeBytes = c.hostBytes, c.nvmeBytes
	s.HostSamples, s.NVMeSamples = c.host.n, c.nvme.n
	return s
}

// Resident reports whether sample i is indexed, without verifying it,
// touching a tier or counting a lookup. A caller that orders admissions
// under its own lock uses it to tell "truly absent" from "admitted since
// my Get missed".
func (c *SampleCache) Resident(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[i]
	return ok
}

// CacheStage is the storage-aware read stage: it serves resident samples
// from the SampleCache and delegates misses to the inner ReadStage, whose
// successful reads populate the cache — so epoch 0 is the cold traversal
// that builds residency and later epochs read from the hierarchy level the
// paper's model predicts. Hits and misses are counted on the
// pipeline.cache.* metrics; both paths run under the pipeline.read span so
// stage accounting is identical with and without a cache.
type CacheStage struct {
	read  *ReadStage
	cache *SampleCache
	ob    iterObs
}

// Name implements Stage.
func (s *CacheStage) Name() string { return "read" }

// Process implements Stage[struct{}, rawSample]. The hit path hands out the
// cache's resident blob and label without copying — decode only reads the
// blob, and an escaped resident never changes. A hit that fails integrity
// verification becomes a miss: the quarantined entry re-reads from the
// dataset and re-admits, so a corrupted resident can never reach a batch.
// A miss seals the dataset's blob into a cache slab, so rot of the
// resident can never reach dataset memory and survive the re-read.
//
//scipp:hotpath
func (s *CacheStage) Process(index int, _ struct{}) (rawSample, error) {
	sp := s.ob.read.Start()
	defer sp.End()
	blob, label, ok, quarantined := s.cache.Get(index)
	if ok {
		s.ob.cacheHits.Inc()
		return rawSample{blob: blob, label: label}, nil
	}
	if quarantined {
		s.ob.cacheQuarantined.Inc()
	}
	s.ob.cacheMisses.Inc()
	r, err := s.read.fetch(index)
	if err != nil {
		return rawSample{}, err
	}
	res := s.cache.Seal(index, r.blob, r.label)
	if dropped := s.cache.Link(res); dropped > 0 {
		s.ob.cacheEvictions.Add(int64(dropped))
	}
	s.cache.Release(res)
	return r, nil
}
