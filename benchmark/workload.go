package main

import (
	"fmt"

	"scipp/internal/codec"
	"scipp/internal/codec/seriesfmt"
	"scipp/internal/core"
	"scipp/internal/dataserve"
	"scipp/internal/gpusim"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
)

// domain selects the synthetic generator and the codec that decodes it.
type domain int

const (
	climate domain = iota // DeepCAM stacks, deltafp
	cosmo                 // CosmoFlow volumes, cosmo-LUT
	weather               // ragged station series, raw-series
)

// spec describes one workload. Only the knobs listed here are set on the
// loader or the service; every stage width, prefetch depth and worker count
// is left at the program's default, so the benchmark measures the defaults
// a user gets.
type spec struct {
	name string
	why  string

	domain  domain
	samples int
	// dims is [H, W] for climate and [Dim] for cosmo; weather uses the
	// generator's default archive shape.
	dims  []int
	batch int

	// gpu places decode on a simulated Summit V100 (loader workloads).
	gpu bool
	// padded drains through NextPadded instead of Next.
	padded bool
	// tenants > 0 serves the dataset through a dataserve.Service to that
	// many closed-loop tenants; 0 drives a private pipeline.Loader.
	tenants int
	// cache sizes the host-memory cache tier as a multiple of the bytes it
	// would need to hold every sample: encoded blobs for a loader, decoded
	// payloads for the service. 0 means no cache.
	cache float64

	// quick replaces samples and dims for the smoke test.
	quickSamples int
	quickDims    []int
}

// workloads are the five cells of the benchmark. Each exists because it
// loads a different layer; the reasons are repeated in BENCHMARK.json and
// argued in README.md.
var workloads = []spec{
	{
		name:   "deepcam_cold",
		why:    "uncached deltafp decode of 16x192x288 climate stacks on the CPU: the codec kernel is nearly all of the work",
		domain: climate, samples: 12, dims: []int{192, 288}, batch: 4,
		quickSamples: 4, quickDims: []int{32, 48},
	},
	{
		name:   "cosmoflow_gpu_cached",
		why:    "cosmo-LUT decode of 4x64^3 volumes through gpusim with every encoded blob cache-resident: LUT kernel plus one checksummed cache hit per sample",
		domain: cosmo, samples: 16, dims: []int{64}, batch: 4, gpu: true, cache: 2,
		quickSamples: 8, quickDims: []int{16},
	},
	{
		name:   "weather_ragged",
		why:    "2048 tiny ragged station series, cached, drained padded: decode is negligible, so stage hops, pool, cache lock and pad assembly are the work",
		domain: weather, samples: 2048, batch: 32, padded: true, cache: 2,
		quickSamples: 512,
	},
	{
		name:   "serve_shared",
		why:    "two tenants on a data service whose cache holds the whole decoded set: every timed request is a shared-cache hit (checksum under the lock plus a copy)",
		domain: cosmo, samples: 96, dims: []int{32}, batch: 4, tenants: 2, cache: 1.2,
		quickSamples: 16, quickDims: []int{16},
	},
	{
		name:   "serve_churn",
		why:    "the same service with a cache a quarter of the decoded set: mostly misses, so decode, blob encode, Put, eviction and single-flight joins are the work",
		domain: cosmo, samples: 96, dims: []int{32}, batch: 4, tenants: 2, cache: 0.25,
		quickSamples: 16, quickDims: []int{16},
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// sized returns the spec at full or smoke-test size.
func (w spec) sized(quick bool) spec {
	if quick {
		w.samples, w.dims = w.quickSamples, w.quickDims
	}
	return w
}

// dataset is a generated, encoded dataset plus what the harness needs to
// know about it.
type dataset struct {
	mem    *pipeline.MemDataset
	format codec.Format
	// rawBytes is the size of the generator's output before encoding.
	rawBytes int64
}

// build generates and encodes the workload's dataset. The seed is the
// synthetic generators' base seed, so one seed always gives the same blobs.
func (w spec) build(seed uint64) (*dataset, error) {
	switch w.domain {
	case climate:
		cfg := synthetic.DefaultClimateConfig()
		cfg.Height, cfg.Width, cfg.Seed = w.dims[0], w.dims[1], seed
		mem, err := core.BuildClimateDataset(cfg, w.samples, core.Plugin)
		if err != nil {
			return nil, err
		}
		raw := int64(w.samples) * int64(cfg.Channels*cfg.Height*cfg.Width) * 4
		return &dataset{mem: mem, format: core.FormatFor(core.DeepCAM, core.Plugin), rawBytes: raw}, nil
	case cosmo:
		cfg := synthetic.DefaultCosmoConfig()
		cfg.Dim, cfg.Seed = w.dims[0], seed
		mem, err := core.BuildCosmoDataset(cfg, w.samples, core.Plugin)
		if err != nil {
			return nil, err
		}
		raw := int64(w.samples) * 4 * int64(cfg.Dim*cfg.Dim*cfg.Dim) * 2
		return &dataset{mem: mem, format: core.FormatFor(core.CosmoFlow, core.Plugin), rawBytes: raw}, nil
	case weather:
		cfg := synthetic.DefaultWeatherConfig()
		cfg.Seed = seed
		mem, err := core.BuildWeatherDataset(cfg, w.samples)
		if err != nil {
			return nil, err
		}
		return &dataset{mem: mem, format: seriesfmt.Bounded(cfg.Channels, cfg.MaxLen), rawBytes: int64(mem.EncodedBytes())}, nil
	}
	return nil, fmt.Errorf("benchmark: unknown domain %d", w.domain)
}

// shuffleSeed derives consumer c's shuffle seed from the run seed, so two
// tenants never share a schedule.
func shuffleSeed(seed uint64, c int) uint64 { return seed*1000003 + uint64(c)*101 + 7 }

const servedDataset = "shared"

// rig is the constructed system under test: a private loader or a service
// with its tenants. Exactly one of loader and svc is set.
type rig struct {
	loader  *pipeline.Loader
	svc     *dataserve.Service
	tenants []*dataserve.Tenant
	// reg receives the loader's own stage spans in a traced run.
	reg *obs.Registry
}

// construct builds the loader or the service over data and fmt (either of
// which may be the tracer's forwarding wrappers). cacheBytes is the
// workload's cache working set; ref sizes it for the service.
func (w spec) construct(data pipeline.Dataset, format codec.Format, cacheUnit int64, seed uint64, reg *obs.Registry) (*rig, error) {
	cache := pipeline.CacheConfig{HostMemBytes: int64(w.cache * float64(cacheUnit))}
	if w.tenants == 0 {
		cfg := pipeline.Config{
			Format:  format,
			Batch:   w.batch,
			Shuffle: true,
			Seed:    shuffleSeed(seed, 0),
			Cache:   cache,
			Obs:     reg,
		}
		if w.gpu {
			cfg.Plugin = pipeline.GPUPlugin
			cfg.Device = gpusim.New(platform.Summit().GPU)
		}
		l, err := pipeline.New(data, cfg)
		if err != nil {
			return nil, err
		}
		return &rig{loader: l, reg: reg}, nil
	}
	svc := dataserve.New(dataserve.Config{})
	r := &rig{svc: svc}
	if err := svc.Register(dataserve.DatasetConfig{Name: servedDataset, Data: data, Format: format, Cache: cache}); err != nil {
		svc.Close()
		return nil, err
	}
	for c := 0; c < w.tenants; c++ {
		t, err := svc.Attach(dataserve.TenantConfig{
			Name:     fmt.Sprintf("tenant%d", c),
			Dataset:  servedDataset,
			Batch:    w.batch,
			Inflight: 8,
			Shuffle:  true,
			Seed:     shuffleSeed(seed, c),
		})
		if err != nil {
			svc.Close()
			return nil, err
		}
		r.tenants = append(r.tenants, t)
	}
	return r, nil
}

func (r *rig) close() {
	if r.svc != nil {
		r.svc.Close()
	}
}

// cache and pool return the rig's sample cache (nil when uncached) and
// slab pool, wherever they live.
func (r *rig) cache() *pipeline.SampleCache {
	if r.svc != nil {
		return r.svc.Cache(servedDataset)
	}
	return r.loader.Cache()
}

func (r *rig) pool() *pipeline.SlabPool {
	if r.svc != nil {
		return r.svc.Pool(servedDataset)
	}
	return r.loader.Pool()
}
