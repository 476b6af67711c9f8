// Command sppinfo prints the modeled system architecture (Table I), the
// software-environment metadata (Table II), and the calibrated per-sample
// workload models for both applications.
//
// With -metrics it instead dumps an obs registry snapshot covering the
// simulated figure replays (Fig 9 + Fig 12 stage spans) and one live
// instrumented pipeline epoch on a virtual clock; -json selects the JSON
// exporter over the text one.
//
// Usage:
//
//	sppinfo [-scale 0.5] [-metrics [-json]]
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
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
	"scipp/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "sppinfo:", err)
		os.Exit(1)
	}
}

// run is the whole command behind main: it parses args and writes the
// tables, or the metrics snapshot, to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sppinfo", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.5, "calibration fraction of paper-scale sample dimensions (0,1]")
	metrics := fs.Bool("metrics", false, "dump an obs metrics snapshot (figure replays + one live epoch) instead of the tables")
	jsonOut := fs.Bool("json", false, "with -metrics, emit JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics {
		return dumpMetrics(w, *scale, *jsonOut)
	}

	var b strings.Builder
	fmt.Fprintln(&b, bench.TableI())
	fmt.Fprintln(&b, bench.TableII())

	fmt.Fprintln(&b, "CALIBRATED PER-SAMPLE WORKLOAD MODELS (paper-scale bytes)")
	for _, app := range []core.App{core.DeepCAM, core.CosmoFlow} {
		m, err := bench.Calibrate(app, *scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%-10s raw-fp32=%6.1fMB stored=%6.1fMB gzip=%6.1fMB plugin=%6.1fMB decoded-fp16=%6.1fMB\n",
			app, mb(m.RawF32Bytes), mb(m.StoredBytes), mb(m.GzipBytes), mb(m.PluginBytes), mb(m.DecodedBytes))
		fmt.Fprintf(&b, "%-10s plugin ratio vs stored: %.2fx, gzip ratio: %.2fx\n",
			"", float64(m.StoredBytes)/float64(m.PluginBytes), float64(m.StoredBytes)/float64(m.GzipBytes))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// dumpMetrics fills one registry from the simulated figure replays plus a
// small live instrumented epoch on a virtual clock, then renders it with the
// selected exporter. Everything runs on virtual clocks, so the counters and
// span counts (though not the live path's durations on a virtual clock that
// never advances) are reproducible.
func dumpMetrics(w io.Writer, scale float64, jsonOut bool) error {
	reg := obs.NewRegistry()
	f9, err := bench.Fig9(scale)
	if err != nil {
		return err
	}
	bench.ReplayBreakdown(reg, f9)
	f12, err := bench.Fig12(scale)
	if err != nil {
		return err
	}
	bench.ReplayBreakdown(reg, f12)

	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 48
	cfg.Width = 72
	ds, err := core.BuildClimateDataset(cfg, 6, core.Plugin)
	if err != nil {
		return err
	}
	clock := &trace.VirtualClock{}
	loader, err := pipeline.New(ds, pipeline.Config{
		Format: obs.InstrumentFormat(core.FormatFor(core.DeepCAM, core.Plugin), reg, clock),
		Batch:  2,
		Clock:  clock,
		Obs:    reg,
	})
	if err != nil {
		return err
	}
	if _, err := loader.Epoch(0).Drain(); err != nil {
		return err
	}

	s := reg.Snapshot()
	if jsonOut {
		out, err := s.JSON()
		if err != nil {
			return err
		}
		out = append(out, '\n')
		_, err = w.Write(out)
		return err
	}
	_, err = io.WriteString(w, s.Text())
	return err
}

func mb(b int) float64 { return float64(b) / (1 << 20) }
