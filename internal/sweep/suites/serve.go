package suites

import (
	"fmt"

	"scipp/internal/codec"
	"scipp/internal/core"
	"scipp/internal/dataserve"
	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/sweep"
	"scipp/internal/synthetic"
)

// Serve sweeps the multi-tenant data service: N concurrent tenants
// multiplexed over one shared dataset through one decoded-sample cache,
// crossed with dataset (CosmoFlow LUT, DeepCAM delta-FP) and fault mix
// (transient reads, cache bit rot). Every tenant must digest bit-identically
// to the clean twin of its schedule, the service must decode each distinct
// sample exactly once (plus one re-decode per injected rot), and the
// per-tenant and service ledgers must reconcile exactly against the
// injector logs. The ratio column is shared decodes over the tenants x
// samples a private-loader-per-job deployment would have performed.
var Serve = Suite{
	Name:     "serve",
	Defaults: Params{Tenants: 3, Samples: 32, Epochs: 2, Seed: 1},
	Check: func(p Params) error {
		if p.Tenants < 1 {
			return fmt.Errorf("-tenants must be >= 1")
		}
		return nil
	},
	Cells: serveCells,
	Columns: []sweep.Column{
		sweep.ObsColumn("served", 8, "svc.dispatched"),
		sweep.ObsColumn("decodes", 8, "svc.decode.count"),
		sweep.ObsColumn("dedup", 7, "svc.decode.dedup"),
		sweep.ObsColumn("retry", 7, "svc.retries"),
		sweep.ObsColumn("quar", 7, "svc.cache.quarantined"),
		sweep.ObsColumn("shed", 7, "svc.shed"),
		sweep.ObsColumn("brkrej", 7, "svc.breaker.rejects"),
		{Head: "ratio", Width: 7, Value: func(r sweep.Result) string { return fmt.Sprintf("%.3f", r.Info["decode_ratio"]) }},
		{Head: "samples/s", Width: 10, Value: func(r sweep.Result) string { return fmt.Sprintf("%.0f", r.Info["samples_per_s"]) }},
	},
}

// serveMix is one fault mixture: the per-sample probability of transient
// read failures and the cache bit-rot probability.
type serveMix struct {
	name              string
	transient, bitRot float64
}

// serveSets are the shared-dataset axis.
var serveSets = []domain{
	{name: "cosmo", build: cosmoSet(8)},
	{name: "climate", build: func(n int) (*pipeline.MemDataset, codec.Format, error) {
		cfg := synthetic.DefaultClimateConfig()
		cfg.Channels, cfg.Height, cfg.Width = 4, 16, 16
		ds, err := core.BuildClimateDataset(cfg, n, core.Plugin)
		return ds, core.FormatFor(core.DeepCAM, core.Plugin), err
	}},
}

func serveCells(p Params) []sweep.Cell {
	var cells []sweep.Cell
	for _, m := range []serveMix{
		{name: "clean"},
		{name: "transient", transient: 0.25},
		{name: "bitrot", bitRot: 0.2},
		{name: "all", transient: 0.15, bitRot: 0.1},
	} {
		for _, d := range serveSets {
			cells = append(cells, sweep.Cell{
				Name:   m.name + "/" + d.name,
				Run:    func() (sweep.Result, error) { return runServe(d, m, p) },
				Twin:   tenantTwin("twin/"+d.name, d, schedules(tenantNames("t", p.Tenants), p.Seed, -1), p),
				Expect: serveExpect(m, p),
			})
		}
	}
	return cells
}

// runServe executes one cell: p.Tenants concurrent jobs, each a full
// multi-epoch pass over the shared dataset.
func runServe(d domain, m serveMix, p Params) (sweep.Result, error) {
	ds, format, err := d.build(p.Samples)
	if err != nil {
		return sweep.Result{}, err
	}
	var injector *fault.Injector
	var sds pipeline.Dataset = ds
	if m.transient > 0 {
		injector = fault.Wrap(ds, fault.Config{Seed: p.Seed + 3, Transient: m.transient})
		sds = injector
	}
	reg := obs.NewRegistry()
	svc := dataserve.New(dataserve.Config{Obs: reg})
	defer svc.Close()
	err = svc.Register(dataserve.DatasetConfig{
		Name:       d.name,
		Data:       sds,
		Format:     format,
		Cache:      pipeline.CacheConfig{HostMemBytes: 64 << 20},
		MaxRetries: 2, // fault.Config default fails each transient sample twice
	})
	if err != nil {
		return sweep.Result{}, err
	}
	var ci *fault.CacheInjector
	if m.bitRot > 0 {
		ci = fault.NewCacheInjector(fault.CacheFaultConfig{Seed: p.Seed + 5, BitRot: m.bitRot})
		svc.Cache(d.name).SetTamper(ci)
	}
	names := tenantNames("t", p.Tenants)
	jobs := make([]job, p.Tenants)
	for i, name := range names {
		jobs[i] = job{strict: true, cfg: dataserve.TenantConfig{
			Name: name, Dataset: d.name, Batch: tenantBatch,
			Shuffle: true, Seed: tenantSeed(p.Seed, i), Inflight: 8,
		}}
	}

	o := sweep.Obs{}
	stats, elapsed, err := runTenants(o, svc, reg, jobs, p.Epochs)
	if err != nil {
		return sweep.Result{}, err
	}
	var delivered int64
	for i, ts := range stats {
		o["digest."+names[i]] = int64(ts.digest)
		o[names[i]+".decodes"] = ts.Decodes
		o[names[i]+".dedup"] = ts.Dedup
		o[names[i]+".retries"] = ts.Retries
		o[names[i]+".hits.owned"] = ts.HitsOwned
		o[names[i]+".hits.borrowed"] = ts.HitsBorrowed
		o[names[i]+".joins"] = ts.Joins
		delivered += ts.Samples
	}
	o["inj.transient"], o["inj.rot"] = 0, 0
	if injector != nil {
		o["inj.transient"] = int64(len(injector.Log()))
	}
	if ci != nil {
		o["inj.rot"] = int64(len(ci.Log()))
	}
	info := map[string]float64{
		"decode_ratio": float64(o["svc.decode.count"]) / float64(p.Tenants*p.Samples),
	}
	if elapsed > 0 {
		info["samples_per_s"] = float64(delivered) / elapsed
	}
	return sweep.Result{Obs: o, Info: info}, nil
}

func serveExpect(m serveMix, p Params) []sweep.Expect {
	names := tenantNames("t", p.Tenants)
	per := int64(p.Samples * p.Epochs)
	full := int64((p.Tenants - 1) * p.Samples)
	table := []sweep.Expect{
		// Single flight: each distinct sample decoded once, plus exactly one
		// re-decode per injected rot.
		{Left: []string{"svc.decode.count"}, Op: sweep.EQ, Right: []string{"inj.rot"}, Const: int64(p.Samples),
			Why: "one decode per sample plus one re-decode per rot"},
		sweep.Mirror("svc.retries", "inj.transient"),
		sweep.Mirror("svc.cache.quarantined", "inj.rot"),
		sweep.Eq("svc.dispatched", per*int64(p.Tenants), "every scheduled request is dispatched"),
		sweep.SumEq("svc.decode.count", keys(names, ".decodes")...),
		sweep.SumEq("svc.decode.dedup", keys(names, ".dedup")...),
		sweep.SumEq("svc.retries", keys(names, ".retries")...),
		// This sweep configures no deadlines, breakers or poison quarantine
		// and every consumer drains, so each protection counter must be
		// exactly zero across tenant stats, service stats and the registry.
		sweep.SumEq("svc.shed", keys(names, ".shed")...),
		sweep.SumEq("svc.breaker.rejects", keys(names, ".breaker.rejects")...),
		sweep.Eq("svc.shed", 0, "shed without a deadline"),
		sweep.Eq("svc.breaker.rejects", 0, "breaker reject without a breaker"),
		sweep.Eq("svc.poisoned", 0, "poison quarantine fired unconfigured"),
		sweep.Eq("svc.poison.rejects", 0, "poison quarantine fired unconfigured"),
		sweep.Eq("svc.detached.slow", 0, "watchdog detached a draining tenant"),
	}
	if m.bitRot == 0 {
		table = append(table, sweep.Eq("svc.decode.dedup", full, "dedup = (tenants-1)*samples"))
	} else {
		// A rot discovered on a tenant's first access to the sample turns
		// that first touch from a dedup into an owned re-decode.
		table = append(table,
			sweep.AtMost("svc.decode.dedup", full, "dedup above (tenants-1)*samples"),
			sweep.Expect{Left: []string{"svc.decode.dedup", "inj.rot"}, Op: sweep.GE, Const: full,
				Why: "dedup lost more than one first touch per rot"})
	}
	if m.name != "clean" {
		table = append(table, sweep.Expect{Left: []string{"inj.transient", "inj.rot"}, Op: sweep.GE, Const: 1,
			Why: "the fault mix injected nothing"})
	}
	for _, tn := range names {
		table = append(table,
			sweep.Mirror("digest."+tn, "twin.digest."+tn),
			sweep.Eq(tn+".samples", per, "every scheduled sample is delivered"),
			sweep.Expect{Left: []string{tn + ".decodes", tn + ".hits.owned", tn + ".hits.borrowed", tn + ".joins"},
				Op: sweep.EQ, Const: per, Why: "every serve is a decode, a hit or a join"},
			sweep.Eq(tn+".skips", 0, "skip with every sample good"),
			sweep.Eq(tn+".errors", 0, "terminal error with every fault absorbed"),
			sweep.Eq(tn+".breaker.trips", 0, "breaker tripped unconfigured"),
			sweep.Eq(tn+".breaker.probes", 0, "breaker probed unconfigured"),
			sweep.Eq(tn+".detached.slow", 0, "watchdog detached a draining tenant"))
	}
	return append(table, ledgerExpect(names)...)
}
