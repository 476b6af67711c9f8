// Command benchmark is the repository's one performance benchmark: five
// workloads over the real codecs, six end-to-end metrics measured with
// tracing off, and a traced run that reports every layer from outside its
// public API. BENCHMARK.json at the repository root declares it; README.md
// in this directory argues each choice.
//
//	bash benchmark/run.sh                       every workload once
//	bash benchmark/run.sh -repeat 5             medians and quartiles over 5 runs each
//	bash benchmark/run.sh -trace 1              the per-layer run, writing benchmark/out/trace-*.json
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh --workload serve_churn --seed 3 --seconds 8 --trace 0
//
// With --workload the process runs that one workload itself and prints the
// result object as its last line. Without it, it runs each workload in a
// fresh child process (a re-exec of itself), so that pool, GC and RSS state
// never leak from one workload into the next.
package main

//lint:file-ignore uncheckederr report lines go to an injected io.Writer (stdout, or a test's buffer); a failed write has nowhere better to go

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"scipp/internal/stats"
)

// An end-to-end run sets the workload up at least minSetups times, and goes
// on (to maxSetups) while the set-ups so far took less than setupBudget in
// all: a 70 ms set-up is jittered by a quarter by the process's own start,
// and needs more repeats than a 2 s one. setup_s is the median, and the
// last set-up is the one that gets timed.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.5 // seconds
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result object last")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the synthetic data and of every shuffle")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics, tracing off")
	flag.BoolVar(&o.quick, "quick", false, "tiny datasets, for smoke tests")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace and result files")
	repeat := flag.Int("repeat", 1, "runs per workload when running them all")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as this harness defines it")
	flag.Parse()

	var err error
	switch {
	case *printManifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(buildManifest())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case o.workload != "":
		var res result
		if res, err = runWorkload(os.Stdout, o); err == nil {
			fmt.Println(res.line())
			if !res.Correct {
				err = fmt.Errorf("%d of %d samples were not delivered bit-correct", res.Failed, res.Attempted)
			}
		}
	default:
		err = runSuite(os.Stdout, o, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(out io.Writer, o options) (result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	w = w.sized(o.quick)
	fmt.Fprintf(out, "%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d %s\n", w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.Version())
	if o.trace != 0 {
		return runTraced(out, w, o)
	}
	return runEndToEnd(out, w, o)
}

// runEndToEnd sets the workload up several times, times the last
// set-up's system with tracing off, verifies one more epoch in full, and
// reports the end-to-end metrics.
func runEndToEnd(out io.Writer, w spec, o options) (result, error) {
	var (
		s      *session
		ref    *reference
		setups []float64
		spent  float64
	)
	for last := false; !last; {
		if s != nil {
			s.close()
			s = nil
		}
		n := len(setups) + 1
		last = n >= minSetups && (spent >= setupBudget || o.quick) || n == maxSetups
		var err error
		if s, err = prepare(w, o.seed, ref); err != nil {
			return result{}, err
		}
		ref = s.ref
		if last {
			// peak_rss_mb covers the dataset and everything the loader or
			// service allocates from construction on — not the garbage of
			// the earlier set-ups or of the synthetic generators, whose
			// high-water mark depends on when the collector happened to
			// run.
			resetPeakRSS()
		}
		if err = s.start(false); err != nil {
			return result{}, err
		}
		setups = append(setups, s.setup.total())
		spent += s.setup.total()
	}
	defer s.close()
	p, err := s.timed(o.seconds)
	if err != nil {
		return result{}, err
	}
	if err := s.finalCheck(); err != nil {
		return result{}, err
	}
	t := p.rates()
	vals := map[string]float64{
		"samples_per_s":     t.samplesPerS,
		"batch_wait_p95_ms": t.waitP95Ms,
		"cpu_ms_per_sample": t.cpuMsPerSample,
		"allocs_per_sample": t.allocsPerSample,
		"peak_rss_mb":       peakRSSMB(),
		"setup_s":           median(setups),
	}
	attempted, failed, digest := s.verdict()
	fmt.Fprintf(out, "  timed %.2f s: %d samples in %d batches (the wait percentile's sample count), %d epochs; segment samples/s %.6g..%.6g\n",
		t.wallS, t.samples, len(p.a.waits), p.a.epochs, t.segMin, t.segMax)
	fmt.Fprintf(out, "  %d set-ups; %d of %d samples failed verification; digest %016x\n", len(setups), failed, attempted, digest)
	return report(out, endToEnd, vals, attempted, failed, digest)
}

// rates are the timed phase's headline numbers: times as medians over its
// segments, counts over the whole phase.
type rates struct {
	wallS, cpuS                                  float64
	samples                                      int64
	samplesPerS, cpuMsPerSample, allocsPerSample float64
	allocBytesPerSample                          float64
	waitP50Ms, waitP95Ms                         float64
	goroutinesPeak                               int
	// segMin and segMax are the slowest and fastest segment's samples/s:
	// how steady the run was.
	segMin, segMax float64
}

func (p *phase) rates() rates {
	first, last := p.snaps[0], p.snaps[len(p.snaps)-1]
	r := rates{
		wallS:   float64(last.t-first.t) / 1e9,
		cpuS:    last.cpuS - first.cpuS,
		samples: last.delivered - first.delivered,
	}
	var sps, cpu []float64
	for i := 1; i < len(p.snaps); i++ {
		a, b := p.snaps[i-1], p.snaps[i]
		n := float64(b.delivered - a.delivered)
		if n <= 0 {
			continue
		}
		sps = append(sps, n/(float64(b.t-a.t)/1e9))
		cpu = append(cpu, (b.cpuS-a.cpuS)*1e3/n)
		r.goroutinesPeak = max(r.goroutinesPeak, b.goroutines)
	}
	ss := sorted(sps)
	r.segMin, r.segMax = ss[0], ss[len(ss)-1]
	r.samplesPerS, r.cpuMsPerSample = median(sps), median(cpu)
	// Allocation counts do not jitter the way times do, but a segment holds
	// a varying number of epoch starts; the whole phase averages those out.
	r.allocsPerSample = float64(p.memEnd.Mallocs-p.memStart.Mallocs) / float64(r.samples)
	r.allocBytesPerSample = float64(p.memEnd.TotalAlloc-p.memStart.TotalAlloc) / float64(r.samples)
	waits := make([]float64, len(p.a.waits))
	for i, ns := range p.a.waits {
		waits[i] = float64(ns) / 1e6
	}
	r.waitP50Ms, r.waitP95Ms = stats.Percentile(waits, 0.50), stats.Percentile(waits, 0.95)
	return r
}

// resetPeakRSS returns freed memory to the system and restarts the kernel's
// high-water mark of the resident set. Where the kernel refuses, the mark
// simply keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// peakRSSMB is the process's high-water resident set, from VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// runTraced reports the per-layer metrics. It times the workload twice for
// half the run length each, first untraced and then with the harness's
// wrappers on, so the difference is the tracing overhead; the ladder and
// the machine calibration follow in the same process.
func runTraced(out io.Writer, w spec, o options) (result, error) {
	plain, err := newSession(w, o.seed, nil, false)
	if err != nil {
		return result{}, err
	}
	pp, err := plain.timed(o.seconds / 2)
	plain.close()
	if err != nil {
		return result{}, err
	}
	untraced := pp.rates()

	s, err := newSession(w, o.seed, plain.ref, true)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	p, err := s.timed(o.seconds / 2)
	if err != nil {
		return result{}, err
	}
	if err := s.finalCheck(); err != nil {
		return result{}, err
	}

	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.Name] = 0
	}
	s.layerMetrics(p, untraced, vals)
	calibrate(o.quick, vals)
	if err := ladder(s, o.quick, vals); err != nil {
		return result{}, err
	}
	attemptedPlain, failedPlain, _ := plain.verdict()
	attempted, failed, digest := s.verdict()
	attempted, failed = attempted+attemptedPlain, failed+failedPlain
	vals["failed_share"] = float64(failed) / float64(attempted)

	path, err := s.tr.write(o.outDir, w.name, o.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "  spans written to %s; digest %016x\n", path, digest)
	return report(out, perLayer, vals, attempted, failed, digest)
}

// layerMetrics fills in every per-layer metric that comes from the traced
// timed phase: differences of the program's ledgers and of the tracer's
// counters between the phase's first and last segment edge.
func (s *session) layerMetrics(p *phase, untraced rates, m map[string]float64) {
	t := p.rates()
	d := func(name string) float64 { return p.endCount[name] - p.startCount[name] }
	busy := func(b boundary) float64 { return d("trace." + boundaryNames[b] + ".busy_s") }
	count := func(b boundary) float64 { return d("trace." + boundaryNames[b] + ".count") }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	samples := float64(t.samples)

	m["core.build_s"] = s.setup.buildS
	m["core.encoded_mb"] = float64(s.data.mem.EncodedBytes()) / 1e6
	m["core.raw_mb"] = float64(s.data.rawBytes) / 1e6
	m["setup.construct_s"] = s.setup.constructS
	m["setup.warmup_s"] = s.setup.warmupS

	m["codec.open.count"] = count(bOpen)
	m["codec.open.busy_s"] = busy(bOpen)
	m["codec.decode.chunks"] = d("trace.chunks")
	m["codec.decode.busy_s"] = busy(bDecode)
	m["codec.bytes_in"] = d("trace.bytes_in")
	m["codec.bytes_out"] = d("trace.bytes_out")
	m["codec.errors"] = d("trace.codec_errors")

	m["pipeline.read.count"] = count(bBlob)
	m["pipeline.read.bytes"] = d("trace.read_bytes")
	m["pipeline.read.busy_s"] = busy(bBlob) + busy(bLabel)

	m["pipeline.cache.hits"] = d("cache.hits")
	m["pipeline.cache.misses"] = d("cache.misses")
	m["pipeline.cache.evictions"] = d("cache.evictions")
	m["pipeline.cache.demotions"] = d("cache.demotions")
	m["pipeline.cache.quarantined"] = d("cache.quarantined")
	m["pipeline.cache.hit_ratio"] = ratio(d("cache.hits"), d("cache.hits")+d("cache.misses"))
	m["pipeline.cache.resident_mb"] = p.endCount["cache.resident_bytes"] / 1e6

	m["pipeline.pool.gets"] = d("pool.gets")
	m["pipeline.pool.reuse_ratio"] = ratio(d("pool.hits"), d("pool.gets"))

	waitS := float64(p.a.waitNs) / 1e9
	if s.w.tenants == 0 {
		m["pipeline.next.count"] = float64(len(p.a.waits))
		m["pipeline.next.wait_s"] = waitS
		m["pipeline.next.wait_p50_ms"] = t.waitP50Ms
		m["pipeline.release.busy_s"] = float64(p.a.releaseNs) / 1e9
		m["pipeline.epoch_start_us"] = ratio(float64(p.a.epochNs)/1e3, float64(p.a.epochs))
		m["pipeline.retries"] = float64(p.a.retries)
		m["pipeline.skipped"] = float64(p.a.skipped)
		m["pipeline.decode.busy_s"] = d("obs.pipeline.decode.cpu") + d("obs.pipeline.decode.gpu")
		m["pipeline.read_span.busy_s"] = d("obs.pipeline.read")
		m["pipeline.prefetch_wait_s"] = d("obs.pipeline.prefetch_wait")
		m["pipeline.queue_depth_max"] = p.endCount["obs.queue_depth_max"]
	} else {
		m["dataserve.dispatched"] = d("svc.dispatched")
		m["dataserve.decodes"] = d("svc.decodes")
		m["dataserve.dedup"] = d("svc.dedup")
		m["dataserve.joins"] = d("svc.joins")
		m["dataserve.cache_hits"] = d("svc.cache_hits")
		m["dataserve.cache_misses"] = d("svc.cache_misses")
		m["dataserve.hit_ratio"] = ratio(d("svc.cache_hits"), d("svc.cache_hits")+d("svc.cache_misses"))
		m["dataserve.served_mb"] = d("svc.served_bytes") / 1e6
		m["dataserve.retries"] = d("svc.retries")
		m["dataserve.shed"] = d("svc.shed")
		m["dataserve.lag_p99"] = p.endCount["svc.lag_p99"]
		lo, hi := p.perConsumer[0], p.perConsumer[0]
		for _, n := range p.perConsumer {
			lo, hi = min(lo, n), max(hi, n)
		}
		m["dataserve.tenant_rate_min_over_max"] = ratio(float64(lo), float64(hi))
		m["dataserve.next.wait_s"] = waitS
		m["dataserve.hit_serve_us"] = ratio(float64(s.w.tenants)*t.wallS*1e6, samples)
	}

	m["trace.samples_per_s"] = t.samplesPerS
	m["trace.overhead_pct"] = 100 * ratio(untraced.samplesPerS-t.samplesPerS, untraced.samplesPerS)

	m["go.allocs_per_sample"] = t.allocsPerSample
	m["go.alloc_bytes_per_sample"] = t.allocBytesPerSample
	m["go.gc_cycles"] = float64(p.memEnd.NumGC - p.memStart.NumGC)
	m["go.gc_pause_ms"] = float64(p.memEnd.PauseTotalNs-p.memStart.PauseTotalNs) / 1e6
	m["go.goroutines_peak"] = float64(t.goroutinesPeak)

	// Where the phase's CPU seconds went. Busy seconds of the wrapped
	// layers are wall time inside calls that do not block, so they stand in
	// for CPU time; what no wrapper reaches — stage hops, cache, pool,
	// dispatcher, GC, the tracer itself — is the residual, printed.
	codecCPU := busy(bOpen) + busy(bDecode)
	readCPU := busy(bBlob) + busy(bLabel)
	consumerCPU := float64(p.a.checkNs+p.a.releaseNs) / 1e9
	residual := t.cpuS - codecCPU - readCPU - consumerCPU
	m["attrib.wall_s"] = t.wallS
	m["attrib.cpu_s"] = t.cpuS
	m["attrib.codec_cpu_s"] = codecCPU
	m["attrib.read_cpu_s"] = readCPU
	m["attrib.consumer_cpu_s"] = consumerCPU
	m["attrib.residual_cpu_s"] = residual
	m["attrib.residual_share"] = ratio(residual, t.cpuS)
	if s.w.tenants == 0 {
		m["pipeline.framework_cpu_us_per_sample"] = ratio(residual*1e6, samples)
	}
}
