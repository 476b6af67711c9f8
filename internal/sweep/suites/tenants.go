package suites

import (
	"errors"
	"fmt"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/dataserve"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/sweep"
	"scipp/internal/trace"
)

// This file is the tenant path the serve and overload suites share: attach
// jobs to a data service, drain them concurrently, flatten both ledgers —
// the stats structs and the obs registry — into observations, and digest
// the clean twin of a schedule by decoding it directly through the codec.

const tenantBatch = 4

// job is one tenant of a cell. A strict job fails the cell on a terminal
// iterator error; a lax one (the overload rogue, whose open breaker ends
// its epoch) just moves on to the next epoch.
type job struct {
	cfg    dataserve.TenantConfig
	strict bool
}

// tenantSeed derives tenant i's shuffle seed: distinct per tenant so the
// schedules interleave, and shared with the tenant's twin.
func tenantSeed(seed uint64, i int) uint64 { return seed + uint64(i)*101 }

// The two ledgers of the data service: every counter below is written to a
// stats struct and to the obs registry by the same code path, so each pair
// must agree exactly. ledgerExpect turns the tables into Mirror rows.
var (
	serviceLedger = []struct {
		counter string
		stat    func(dataserve.ServiceStats) int64
	}{
		{"decode.count", func(s dataserve.ServiceStats) int64 { return s.Decodes }},
		{"decode.dedup", func(s dataserve.ServiceStats) int64 { return s.Dedup }},
		{"retries", func(s dataserve.ServiceStats) int64 { return s.Retries }},
		{"cache.quarantined", func(s dataserve.ServiceStats) int64 { return s.CacheQuarantined }},
		{"dispatched", func(s dataserve.ServiceStats) int64 { return s.Dispatched }},
		{"shed", func(s dataserve.ServiceStats) int64 { return s.Shed }},
		{"breaker.rejects", func(s dataserve.ServiceStats) int64 { return s.BreakerRejects }},
		{"poisoned", func(s dataserve.ServiceStats) int64 { return s.Poisoned }},
		{"poison.rejects", func(s dataserve.ServiceStats) int64 { return s.PoisonRejects }},
		{"detached.slow", func(s dataserve.ServiceStats) int64 { return s.SlowDetaches }},
	}
	tenantLedger = []struct {
		counter string
		stat    func(dataserve.TenantStats) int64
	}{
		{"shed", func(t dataserve.TenantStats) int64 { return t.Shed }},
		{"skips", func(t dataserve.TenantStats) int64 { return t.Skips }},
		{"errors", func(t dataserve.TenantStats) int64 { return t.Errors }},
		{"breaker.trips", func(t dataserve.TenantStats) int64 { return t.BreakerTrips }},
		{"breaker.probes", func(t dataserve.TenantStats) int64 { return t.BreakerProbes }},
		{"breaker.rejects", func(t dataserve.TenantStats) int64 { return t.BreakerRejects }},
		{"detached.slow", func(t dataserve.TenantStats) int64 { return t.SlowDetached }},
	}
)

// ledgerExpect mirrors the service ledger and each named tenant's ledger
// against the obs registry, and ties each tenant's delivered-sample count
// to what its consumer actually drained.
func ledgerExpect(tenants []string) []sweep.Expect {
	var table []sweep.Expect
	for _, l := range serviceLedger {
		table = append(table, sweep.Mirror("svc."+l.counter, "obs.svc."+l.counter))
	}
	for _, name := range tenants {
		for _, l := range tenantLedger {
			table = append(table, sweep.Mirror(name+"."+l.counter, "obs."+name+"."+l.counter))
		}
		table = append(table, sweep.Mirror(name+".samples", name+".drained"))
	}
	return table
}

// keys suffixes every name: keys(["t0","t1"], ".shed") = t0.shed, t1.shed.
func keys(names []string, suffix string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n + suffix
	}
	return out
}

// drained is what one job's run left behind for suite-specific
// observations: the tenant's stats and the digest of what it delivered.
type drained struct {
	dataserve.TenantStats
	digest uint64
}

// runTenants attaches jobs to svc, drains them concurrently for epochs,
// and records into o each tenant's drained count and ledger plus the
// service ledger, each next to its obs mirror. It returns what each job
// drained and the drain's wall seconds.
func runTenants(o sweep.Obs, svc *dataserve.Service, reg *obs.Registry, jobs []job, epochs int) ([]drained, float64, error) {
	tenants := make([]*dataserve.Tenant, len(jobs))
	for i, j := range jobs {
		var err error
		if tenants[i], err = svc.Attach(j.cfg); err != nil {
			return nil, 0, err
		}
	}
	out := make([]drained, len(jobs))
	counts := make([]int64, len(jobs))
	errs := make([]error, len(jobs))
	clock := trace.NewWallClock()
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].digest, counts[i], errs[i] = drainTenant(tenants[i], epochs, jobs[i].strict)
		}(i)
	}
	wg.Wait()
	elapsed := clock.Now()
	if err := errors.Join(errs...); err != nil {
		return nil, elapsed, err
	}

	snap := reg.Snapshot()
	svcStats := svc.Stats()
	for _, l := range serviceLedger {
		o["svc."+l.counter] = l.stat(svcStats)
		o["obs.svc."+l.counter] = snap.Counter("dataserve." + l.counter)
	}
	for i, j := range jobs {
		name := j.cfg.Name
		out[i].TenantStats = tenants[i].Stats()
		for _, l := range tenantLedger {
			o[name+"."+l.counter] = l.stat(out[i].TenantStats)
			o["obs."+name+"."+l.counter] = snap.Counter("dataserve.tenant." + name + "." + l.counter)
		}
		o[name+".samples"] = out[i].Samples
		o[name+".drained"] = counts[i]
	}
	return out, elapsed, nil
}

// drainTenant walks a tenant through its epochs, digesting every delivered
// sample. With strict set a terminal iterator error aborts; without it the
// epoch just ends and the next one starts.
func drainTenant(tn *dataserve.Tenant, epochs int, strict bool) (uint64, int64, error) {
	h := sweep.FNVOffset
	var drained int64
	for e := 0; e < epochs; e++ {
		it := tn.Epoch(e)
		if it == nil {
			if strict {
				return h, drained, fmt.Errorf("%s epoch %d: tenant detached", tn.Name(), e)
			}
			return h, drained, nil
		}
		for {
			b, err := it.Next()
			if err != nil && strict {
				it.Close()
				return h, drained, fmt.Errorf("%s epoch %d: %w", tn.Name(), e, err)
			}
			if err != nil || b == nil {
				break
			}
			h = sweep.DigestBatch(h, b)
			drained += int64(b.Size())
			b.Release()
		}
		it.Close()
	}
	return h, drained, nil
}

func tenantNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return names
}

// schedule is one tenant's shuffle for the twin to replay: its seed and
// the one sample (or -1) its quarantine walks around.
type schedule struct {
	tenant string
	seed   uint64
	skip   int
}

// tenantTwin is the reference cell for a set of tenant schedules: a fresh
// clean build of the dataset, each schedule decoded directly.
func tenantTwin(name string, d domain, schedules []schedule, p Params) *sweep.Cell {
	return &sweep.Cell{Name: name, Run: func() (sweep.Result, error) {
		ds, format, err := d.build(p.Samples)
		if err != nil {
			return sweep.Result{}, err
		}
		o := sweep.Obs{}
		for _, sc := range schedules {
			h, err := twinDigest(ds, format, sc.seed, p.Epochs, sc.skip)
			if err != nil {
				return sweep.Result{}, fmt.Errorf("%s: %w", sc.tenant, err)
			}
			o["digest."+sc.tenant] = int64(h)
		}
		return sweep.Result{Obs: o}, nil
	}}
}

// schedules lists tenants prefix0..prefixN-1 with their derived seeds.
func schedules(names []string, seed uint64, skip int) []schedule {
	out := make([]schedule, len(names))
	for i, n := range names {
		out[i] = schedule{n, tenantSeed(seed, i), skip}
	}
	return out
}

// twinDigest is the clean single-tenant reference: the same per-epoch
// shuffle the service schedules, decoded directly through the codec,
// skipping at most one known-bad sample — exactly the stream a tenant
// delivers when the quarantine absorbs a poisoned sample.
func twinDigest(ds *pipeline.MemDataset, format codec.Format, seed uint64, epochs, skip int) (uint64, error) {
	src := &pipeline.ShuffledSource{N: ds.Len(), Seed: seed}
	pool := pipeline.NewSlabPool()
	h := sweep.FNVOffset
	for e := 0; e < epochs; e++ {
		for _, idx := range src.Order(e) {
			if idx == skip {
				continue
			}
			blob, err := ds.Blob(idx)
			if err != nil {
				return h, err
			}
			cd, err := format.Open(blob)
			if err != nil {
				return h, err
			}
			dst := pool.GetTensor(cd.OutputDType(), cd.OutputShape())
			err = codec.DecodeParallelInto(cd, dst, 1)
			codec.Recycle(cd)
			if err == nil {
				h = sweep.DigestSample(h, idx, dst)
			}
			pool.PutTensor(dst)
			if err != nil {
				return h, err
			}
		}
	}
	return h, nil
}
