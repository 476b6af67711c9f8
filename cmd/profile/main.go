// Command profile inspects the decode stage in detail:
//
//   - The warp-level kernel simulation of the DeepCAM decode under both
//     work-assignment strategies (§VI's hierarchical warp assignment vs the
//     naive thread-per-line mapping), with makespan and warp occupancy.
//   - A real wall-clock profile of the loading pipeline on this host:
//     stage spans and codec metrics recorded through the obs registry, with
//     the per-sample decode activity mirrored onto the trace timeline.
//
// Usage:
//
//	profile [-platform Cori-V100] [-scale 0.5] [-samples 8]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scipp/internal/bench"
	"scipp/internal/core"
	"scipp/internal/iosim"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
}

// run is the whole command behind main: it parses args and writes the
// three profiles to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	platName := fs.String("platform", "Cori-V100", "Summit, Cori-V100 or Cori-A100")
	scale := fs.Float64("scale", 0.5, "calibration fraction of paper-scale dims")
	samples := fs.Int("samples", 8, "samples for the real pipeline profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var b strings.Builder
	p, err := platform.ByName(*platName)
	if err != nil {
		return err
	}

	// Part 1: simulated decode kernel, strategy comparison.
	rows, err := bench.KernelSimCompare(*scale, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "DECODE KERNEL (warp-level simulation, %s %s, DeepCAM workload)\n", p.Name, p.GPU.Name)
	fmt.Fprintf(&b, "%-14s %12s %12s\n", "strategy", "kernel (ms)", "occupancy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.3f %11.0f%%\n", r.Strategy, r.KernelMs, 100*r.Occupancy)
	}
	if len(rows) == 2 && rows[0].KernelMs > 0 {
		fmt.Fprintf(&b, "hierarchical assignment speedup: %.2fx (the §VI design point)\n\n",
			rows[1].KernelMs/rows[0].KernelMs)
	}

	// Part 2: real pipeline wall-clock profile on this host, observed
	// through the metrics layer end to end: iterator stage spans, codec
	// open/decode metering, and the legacy timeline all off one wall clock.
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 8
	cfg.Height = 96
	cfg.Width = 144
	ds, err := core.BuildClimateDataset(cfg, *samples, core.Plugin)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	clock := trace.NewWallClock()
	tl := &trace.Timeline{}
	loader, err := pipeline.New(ds, pipeline.Config{
		Format: obs.InstrumentFormat(core.FormatFor(core.DeepCAM, core.Plugin), reg, clock),
		Batch:  2,
		Trace:  tl,
		Clock:  clock,
		Obs:    reg,
	})
	if err != nil {
		return err
	}
	n, err := loader.Epoch(0).Drain()
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "REAL PIPELINE PROFILE (this host, %d samples, %dx%dx%d plugin decode)\n",
		n, cfg.Channels, cfg.Height, cfg.Width)
	fmt.Fprint(&b, trace.FormatBreakdown(tl.Breakdown()))
	fmt.Fprintf(&b, "  wall span %.1f ms, loader busy %.1f ms (overlap from prefetch)\n",
		1e3*tl.Span(), 1e3*tl.Busy("loader"))

	s := reg.Snapshot()
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "STAGE SPANS (obs registry, wall clock)")
	for _, stage := range []string{"pipeline.read", "pipeline.decode.cpu", "pipeline.prefetch_wait"} {
		hv, ok := s.Histogram(stage + ".seconds")
		if !ok || hv.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-26s %4d spans  total %8.2f ms  mean %8.3f ms\n",
			stage, hv.Count, 1e3*hv.Sum, 1e3*hv.Mean())
	}
	name := core.FormatFor(core.DeepCAM, core.Plugin).Name()
	fmt.Fprintf(&b, "CODEC %s: opened %d blobs, %d -> %d bytes, %d chunks decoded\n",
		name,
		s.Counter("codec."+name+".open.spans"),
		s.Counter("codec."+name+".bytes_in"),
		s.Counter("codec."+name+".bytes_out"),
		s.Counter("codec."+name+".decode.chunks"))

	// Part 3: storage-hierarchy cache on the real data path. The loader's
	// sample cache is sized from the selected platform's node (iosim's
	// residency model realized as a CacheStage); a two-epoch run then shows
	// the paper's "steps 3 & 4 are repeated" regime — epoch 0 populates the
	// cache, epoch 1 reads entirely from it — and the measured hit rate is
	// checked against iosim's analytic HitFraction prediction.
	node := iosim.Node{P: p}
	creg := obs.NewRegistry()
	cached, err := pipeline.New(ds, pipeline.Config{
		Format: core.FormatFor(core.DeepCAM, core.Plugin),
		Batch:  2,
		Cache:  pipeline.CacheFromNode(node, false),
		Obs:    creg,
	})
	if err != nil {
		return err
	}
	for epoch := 0; epoch < 2; epoch++ {
		if _, err := cached.Epoch(epoch).Drain(); err != nil {
			return err
		}
	}
	cs := creg.Snapshot()
	hits, misses := cs.Counter("pipeline.cache.hits"), cs.Counter("pipeline.cache.misses")
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "SAMPLE CACHE (%s node hierarchy, 2 epochs x %d samples)\n", p.Name, n)
	fmt.Fprintf(&b, "  pipeline.cache.hits %d  misses %d  evictions %d  resident %d samples / %.1f KiB host\n",
		hits, misses, cs.Counter("pipeline.cache.evictions"),
		cached.Cache().Stats().HostSamples, float64(cached.Cache().Stats().HostBytes)/1024)
	iods := iosim.Dataset{Samples: n, SampleBytes: ds.EncodedBytes() / n}
	fmt.Fprintf(&b, "  epoch-1 hit rate %.0f%% (iosim HitFraction predicts %.0f%%)\n",
		100*float64(hits)/float64(n), 100*node.HitFraction(iods, 1))
	_, err = io.WriteString(w, b.String())
	return err
}
