package main

//lint:file-ignore uncheckederr report lines go to an injected io.Writer (stdout, or a test's buffer); a failed write has nowhere better to go

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"scipp/internal/stats"
)

// metricDef declares one reported metric. bound (end-to-end only) is the
// share of the parent's median by which the metric may get worse before a
// change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a training job calling Next once per step pays:
// delivery rate, how long a step blocks for its batch, host CPU and
// allocations per sample, memory, and time before the first warm epoch.
// They are measured with tracing off. Bit-correct delivery is the result's
// correct/attempted/failed, not a metric: it is always zero failures, and a
// bound cannot be taken as a share of zero.
//
// The three timing bounds are as wide as the contract allows. On the
// 2-core virtual machine this was built on, the host's own state moves
// every timing by 10 to 15 percent between identical runs for minutes at a
// time (README, "Steadiness"); counts and memory repeat far better and are
// bounded accordingly.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s", "higher", 0.25},
	{"batch_wait_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_sample", "ms", "lower", 0.25},
	{"allocs_per_sample", "allocs", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are reported by the traced run only, from outside each layer's
// public API. A metric of a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	// core / synthetic: set-up, split.
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.encoded_mb", Unit: "MB", Better: "lower"},
	{Name: "core.raw_mb", Unit: "MB", Better: "lower"},
	{Name: "setup.construct_s", Unit: "s", Better: "lower"},
	{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
	// codec, through the forwarding wrapper, then the serial ladder rung.
	{Name: "codec.open.count", Unit: "count", Better: "lower"},
	{Name: "codec.open.busy_s", Unit: "s", Better: "lower"},
	{Name: "codec.decode.chunks", Unit: "count", Better: "lower"},
	{Name: "codec.decode.busy_s", Unit: "s", Better: "lower"},
	{Name: "codec.bytes_in", Unit: "bytes", Better: "lower"},
	{Name: "codec.bytes_out", Unit: "bytes", Better: "lower"},
	{Name: "codec.errors", Unit: "count", Better: "lower"},
	{Name: "codec.serial_decode_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "codec.serial_decode_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "codec.open_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "codec.decode_over_memcpy", Unit: "ratio", Better: "lower"},
	// gpusim ladder rung.
	{Name: "gpusim.exec_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "gpusim.modeled_kernel_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "gpusim.exec_over_serial", Unit: "ratio", Better: "lower"},
	// pipeline read, through the dataset wrapper.
	{Name: "pipeline.read.count", Unit: "count", Better: "lower"},
	{Name: "pipeline.read.bytes", Unit: "bytes", Better: "lower"},
	{Name: "pipeline.read.busy_s", Unit: "s", Better: "lower"},
	// pipeline cache: the run's own ledger, then the ladder rungs.
	{Name: "pipeline.cache.hits", Unit: "count", Better: "higher"},
	{Name: "pipeline.cache.misses", Unit: "count", Better: "lower"},
	{Name: "pipeline.cache.evictions", Unit: "count", Better: "lower"},
	{Name: "pipeline.cache.demotions", Unit: "count", Better: "lower"},
	{Name: "pipeline.cache.quarantined", Unit: "count", Better: "lower"},
	{Name: "pipeline.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.cache.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "pipeline.cache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.cache.get_hit_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "pipeline.cache.get_hit_par_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.cache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.cache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.cache.put_evict_ns", Unit: "ns", Better: "lower"},
	// pipeline pool.
	{Name: "pipeline.pool.gets", Unit: "count", Better: "lower"},
	{Name: "pipeline.pool.reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.pool.get_put_ns", Unit: "ns", Better: "lower"},
	// pipeline iterator and stages.
	{Name: "pipeline.next.count", Unit: "count", Better: "lower"},
	{Name: "pipeline.next.wait_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.next.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.release.busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.epoch_start_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.retries", Unit: "count", Better: "lower"},
	{Name: "pipeline.skipped", Unit: "count", Better: "lower"},
	{Name: "pipeline.decode.busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.read_span.busy_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.prefetch_wait_s", Unit: "s", Better: "lower"},
	{Name: "pipeline.queue_depth_max", Unit: "count", Better: "higher"},
	{Name: "pipeline.framework_cpu_us_per_sample", Unit: "us", Better: "lower"},
	// dataserve.
	{Name: "dataserve.dispatched", Unit: "count", Better: "lower"},
	{Name: "dataserve.decodes", Unit: "count", Better: "lower"},
	{Name: "dataserve.dedup", Unit: "count", Better: "higher"},
	{Name: "dataserve.joins", Unit: "count", Better: "lower"},
	{Name: "dataserve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "dataserve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "dataserve.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataserve.served_mb", Unit: "MB", Better: "higher"},
	{Name: "dataserve.retries", Unit: "count", Better: "lower"},
	{Name: "dataserve.shed", Unit: "count", Better: "lower"},
	{Name: "dataserve.lag_p99", Unit: "dispatches", Better: "lower"},
	{Name: "dataserve.tenant_rate_min_over_max", Unit: "ratio", Better: "higher"},
	{Name: "dataserve.next.wait_s", Unit: "s", Better: "lower"},
	{Name: "dataserve.hit_serve_us", Unit: "us", Better: "lower"},
	// obs ladder rungs and what tracing itself cost.
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.samples_per_s", Unit: "samples/s", Better: "higher"},
	// Go runtime.
	{Name: "go.allocs_per_sample", Unit: "allocs", Better: "lower"},
	{Name: "go.alloc_bytes_per_sample", Unit: "bytes", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.goroutines_peak", Unit: "count", Better: "lower"},
	// Calibration of the machine.
	{Name: "calib.memcpy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "calib.memcpy_array_mb", Unit: "MB", Better: "higher"},
	{Name: "calib.llc_mb", Unit: "MB", Better: "higher"},
	{Name: "calib.chan_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "calib.cores", Unit: "count", Better: "higher"},
	// Attribution: where the timed phase's CPU seconds went.
	{Name: "attrib.wall_s", Unit: "s", Better: "lower"},
	{Name: "attrib.cpu_s", Unit: "s", Better: "lower"},
	{Name: "attrib.codec_cpu_s", Unit: "s", Better: "lower"},
	{Name: "attrib.read_cpu_s", Unit: "s", Better: "lower"},
	{Name: "attrib.consumer_cpu_s", Unit: "s", Better: "lower"},
	{Name: "attrib.residual_cpu_s", Unit: "s", Better: "lower"},
	{Name: "attrib.residual_share", Unit: "ratio", Better: "lower"},
	// Verification, also reported as the result's attempted and failed.
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// manifest is the content of BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long the timed phase of one run lasts by default, and
// what BENCHMARK.json tells the driver to ask for.
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, nameWhy{w.name, w.why})
	}
	return m
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// digest folds every fully verified sample in delivery order; equal
	// seeds give equal digests. It is printed, not part of the object.
	digest uint64
}

// report turns measured values into a result holding exactly the metrics
// defs declares, and prints each by name with its unit.
func report(w io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int64, digest uint64) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs)), digest: digest}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was declared but not measured", d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range vals {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s was measured but not declared", name)
		}
	}
	return res, nil
}

func (r result) line() string {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(data)
}

// quantile returns the m-th of n-quantiles of sorted xs by the method of
// Python's statistics.quantiles (exclusive), which the driver uses.
func quantile(xs []float64, m, n int) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	ld := len(xs)
	j := m * (ld + 1) / n
	j = min(max(j, 1), ld-1)
	delta := m*(ld+1) - j*n
	return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / float64(n)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle of xs (the mean of the two middles for an even
// count).
func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }
