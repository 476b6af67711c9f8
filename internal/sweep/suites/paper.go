package suites

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"scipp/internal/bench"
	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/gzipc"
	"scipp/internal/codec/lut"
	"scipp/internal/codec/zfpc"
	"scipp/internal/core"
	"scipp/internal/fault"
	"scipp/internal/fp16"
	"scipp/internal/obs"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/stats"
	"scipp/internal/sweep"
	"scipp/internal/synthetic"
	"scipp/internal/train"
)

// Paper regenerates the paper's evaluation, one cell per printed table row:
// the Fig 5 content analysis, the §V codec ratios and error tails with the
// zfp-style comparator, the Fig 6/7 convergence runs, a 4-rank
// data-parallel run, the Fig 8/10/11 throughput sweeps and their headline
// maxima, the Fig 9/12 breakdowns (read back through the obs replay), time
// to solution, the weak-scaling projection, the discrete-event node
// simulation and a DeepCAM fault-rate ladder. Its check is
// cmd/sweep/testdata/paper.golden.json, which pins every observation.
//
// A row's observations are the fields it prints: a number is stored as an
// integer under its column head at the decimals printed (key suffix _eN for
// N decimals, shown back with them), and a name field becomes the key
// head.name set to 1.
//
// The model figures run at calibration scale 0.5 and the codec tables at
// half the paper's dimensions. Sizes map onto the shared flags:
//
//   - -samples N: Fig 7 repeats its runs N times (16), Fig 5 analyses N/2
//     CosmoFlow samples (8) and the codec tables measure N/4 (4), each at
//     least one;
//   - -epochs E: the CosmoFlow runs (Fig 7, the 4-rank run, time to
//     solution) train E epochs (12), and the DeepCAM runs (Fig 6, the fault
//     ladder) take 5E optimizer steps (60);
//   - -seed: the base seed of every training run (1).
//
// The training schedule is a warmup with no decay, so a shorter run
// reproduces a prefix of the default one.
var Paper = Suite{
	Name:     "paper",
	Defaults: Params{Samples: 16, Epochs: 12, Seed: 1},
	Check: func(p Params) error {
		if p.Samples < 1 || p.Epochs < 1 {
			return fmt.Errorf("-samples and -epochs must be >= 1")
		}
		return nil
	},
	Cells:   paperCells,
	Columns: []sweep.Column{{Head: "observations", Width: -72, Value: showFixed}},
}

const paperScale = 0.5 // model calibration fraction of paper dimensions

func paperCells(p Params) []sweep.Cell {
	var cells []sweep.Cell
	for _, part := range []func(Params) []sweep.Cell{
		contentCells, convergenceCells, throughputCells, modelCells, faultCells,
	} {
		cells = append(cells, part(p)...)
	}
	// The tables are independent and most of them leave a core idle, so the
	// first cell to run starts every table in the background (running any
	// one cell computes them all); each cell then waits for its own table
	// and returns that table's error.
	runs := make([]func() (sweep.Result, error), len(cells))
	var start sync.Once
	for i := range cells {
		runs[i] = cells[i].Run
		cells[i].Run = func() (sweep.Result, error) {
			start.Do(func() {
				for _, run := range runs {
					go run()
				}
			})
			return runs[i]()
		}
	}
	return cells
}

// record turns the fields of one printed row into its observations.
func record(heads, fields []string) sweep.Obs {
	o := sweep.Obs{}
	for i, f := range fields {
		num := strings.TrimRight(f, "%mx") // units: percent, milliseconds, ratio
		if n, err := strconv.ParseInt(strings.Replace(num, ".", "", 1), 10, 64); err == nil {
			key := heads[i]
			if dot := strings.IndexByte(num, '.'); dot >= 0 {
				key += "_e" + strconv.Itoa(len(num)-dot-1)
			}
			o[key] = n
		} else if f != "-" { // "-" is an empty cell
			o[heads[i]+"."+f] = 1
		}
	}
	return o
}

// row records one row printed with format under the given column heads.
func row(heads, format string, args ...any) sweep.Obs {
	return record(strings.Fields(heads), strings.Fields(fmt.Sprintf(format, args...)))
}

// printed records every row of a table as bench prints it: a title line,
// the column heads, then one line per row.
func printed(text string) []sweep.Obs {
	lines := strings.Split(text, "\n")
	var rows []sweep.Obs
	for _, line := range lines[2 : len(lines)-1] {
		rows = append(rows, record(strings.Fields(lines[1]), strings.Fields(line)))
	}
	return rows
}

// showFixed renders a cell's observations in key order, each _eN value
// with its N decimals.
func showFixed(r sweep.Result) string {
	keys := make([]string, 0, len(r.Obs))
	for k := range r.Obs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		v := strconv.FormatInt(r.Obs[k], 10)
		if j := strings.LastIndex(k, "_e"); j > 0 {
			if places, err := strconv.Atoi(k[j+2:]); err == nil {
				k, v = k[:j], strconv.FormatFloat(float64(r.Obs[k])/math.Pow10(places), 'f', places, 64)
			}
		}
		keys[i] = k + "=" + v
	}
	return strings.Join(keys, " ")
}

// shared memoises one driver call, so the cells of one table run it once
// between them.
func shared[T any](run func() (T, error)) func() (T, error) {
	var once sync.Once
	var v T
	var err error
	return func() (T, error) {
		once.Do(func() { v, err = run() })
		return v, err
	}
}

// table returns the n cells prefix/0 ... prefix/n-1 of one printed table:
// cell i shows the i-th row that one shared call of rows returns.
func table(prefix string, n int, rows func() ([]sweep.Obs, error)) []sweep.Cell {
	rows = shared(rows)
	cells := make([]sweep.Cell, n)
	for i := range cells {
		cells[i] = sweep.Cell{Name: fmt.Sprintf("%s/%d", prefix, i), Run: func() (sweep.Result, error) {
			got, err := rows()
			if err == nil && len(got) != n {
				err = fmt.Errorf("%s: %d rows for %d cells", prefix, len(got), n)
			}
			if err != nil {
				return sweep.Result{}, err
			}
			return sweep.Result{Obs: got[i]}, nil
		}}
	}
	return cells
}

// contentCells: the Fig 5 analysis of CosmoFlow samples at dim 128 with
// sample 0's groups against the permutation bound (the paper's "36944 of a
// potential 1.2e11"); the §V-A DeepCAM ratio, line modes and error tail;
// the §V-B CosmoFlow LUT ratio against gzip with a per-voxel exactness
// check; and the zfp-style comparator on DeepCAM sample 0.
func contentCells(p Params) []sweep.Cell {
	n5, n := max(1, p.Samples/2), max(1, p.Samples/4)
	cells := table("fig5", n5, func() ([]sweep.Obs, error) {
		res, err := bench.Fig5(128, n5)
		if err != nil {
			return nil, err
		}
		var rows []sweep.Obs
		for _, r := range res.Rows {
			rows = append(rows, row("unique-values unique-groups plaw-alpha R2", "%d %d %.2f %.2f", r.UniqueValues, r.UniqueGroups, r.Alpha, r.R2))
		}
		bound := math.Pow(float64(res.Rows[0].UniqueValues), 4)
		rows[0]["perm-bound"], rows[0]["perm-ratio"] = int64(bound), int64(math.Round(bound/float64(res.Rows[0].UniqueGroups)))
		return rows, nil
	})
	sample0 := shared(func() (*synthetic.ClimateSample, error) { return halfClimate(0) })
	cells = append(cells, table("sec5a", n, func() ([]sweep.Obs, error) {
		var rows []sweep.Obs
		for i := 0; i < n; i++ {
			s, err := sample0()
			if i > 0 {
				s, err = halfClimate(i)
			}
			if err != nil {
				return nil, err
			}
			blob, errs, err := deltafpTrip(s)
			if err != nil {
				return nil, err
			}
			st, err := deltafp.BlobStats(blob)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row("ratio raw-lines const delta >10%err mean-rel-err", "%.2f %d %d %d %.2f %.4f",
				st.Ratio, st.RawLines, st.ConstLines, st.DeltaLines, 100*errs.FracAbove, errs.MeanRel))
		}
		return rows, nil
	})...)
	cells = append(cells, table("sec5b", n, func() ([]sweep.Obs, error) {
		var rows []sweep.Obs
		for i := 0; i < n; i++ {
			o, err := lutRow(i)
			if err != nil {
				return nil, err
			}
			rows = append(rows, o)
		}
		return rows, nil
	})...)
	return append(cells, table("zfp", 3, func() ([]sweep.Obs, error) {
		const heads = "codec ratio >10%err mean-rel"
		s, err := sample0()
		if err != nil {
			return nil, err
		}
		blob, errs, err := deltafpTrip(s)
		if err != nil {
			return nil, err
		}
		rows := []sweep.Obs{row(heads, "deltafp %.2f %.2f %.4f", float64(s.Data.Bytes())/float64(len(blob)), 100*errs.FracAbove, errs.MeanRel)}
		// zfpc compresses each channel plane, with no FP16 emission, no fused
		// preprocessing and host-side decode only: the §III limitations.
		data, h, w := s.Data.F32s, s.Data.Shape[1], s.Data.Shape[2]
		for _, rate := range []int{8, 10} {
			recon := make([]float32, len(data))
			total := 0
			for off := 0; off < len(data); off += h * w {
				zb, err := zfpc.Encode(data[off:off+h*w], h, w, zfpc.Options{Rate: rate})
				if err != nil {
					return nil, err
				}
				out, _, _, err := zfpc.Decode(zb)
				if err != nil {
					return nil, err
				}
				total += len(zb)
				copy(recon[off:], out)
			}
			es := stats.RelativeErrors(data, recon, 0.10)
			rows = append(rows, row(heads, "zfpc-r%d %.2f %.2f %.4f", rate, float64(s.Data.Bytes())/float64(total), 100*es.FracAbove, es.MeanRel))
		}
		return rows, nil
	})...)
}

// halfClimate is DeepCAM sample i at half the paper's height and width.
func halfClimate(i int) (*synthetic.ClimateSample, error) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Height, cfg.Width = cfg.Height/2, cfg.Width/2
	return synthetic.GenerateClimate(cfg, i)
}

// deltafpTrip encodes a climate stack with deltafp and decodes it back,
// returning the blob and the reconstruction's relative errors.
func deltafpTrip(s *synthetic.ClimateSample) ([]byte, stats.ErrorStats, error) {
	blob, err := deltafp.Encode(s.Data, deltafp.Options{})
	if err != nil {
		return nil, stats.ErrorStats{}, err
	}
	cd, err := deltafp.Format().Open(blob)
	if err != nil {
		return nil, stats.ErrorStats{}, err
	}
	dec, err := codec.DecodeParallel(cd, 8)
	if err != nil {
		return nil, stats.ErrorStats{}, err
	}
	return blob, stats.RelativeErrors(s.Data.F32s, dec.ToF32().F32s, 0.10), nil
}

// lutRow measures CosmoFlow sample i at dim 64: LUT and gzip ratios, group
// and table counts, and whether the LUT decode equals fp16(log1p(count))
// on every voxel.
func lutRow(i int) (sweep.Obs, error) {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim /= 2
	s, err := synthetic.GenerateCosmo(cfg, i)
	if err != nil {
		return nil, err
	}
	blob, err := lut.Encode(s.Channels, s.Dim)
	if err != nil {
		return nil, err
	}
	st, err := lut.BlobStats(blob)
	if err != nil {
		return nil, err
	}
	z, err := gzipc.Encode(synthetic.CosmoToRecord(s), 0)
	if err != nil {
		return nil, err
	}
	cd, err := lut.Format().Open(blob)
	if err != nil {
		return nil, err
	}
	dec, err := codec.DecodeParallel(cd, 8)
	if err != nil {
		return nil, err
	}
	exact := "yes"
	vol := s.Dim * s.Dim * s.Dim
	for v := 0; v < 4*vol && exact == "yes"; v++ {
		if dec.At32(v) != fp16.RoundTrip32(lut.OpLog1p.Apply(s.Channels[v/vol][v%vol])) {
			exact = "NO"
		}
	}
	return row("lut-ratio gzip-ratio groups tables exact", "%.2f %.2f %d %d %s",
		st.Ratio, float64(s.StoredBytes())/float64(len(z)), st.Groups, st.SubVolumes, exact), nil
}

// convergenceCells: Fig 6's per-step DeepCAM losses, base and decoded;
// Fig 7's per-epoch CosmoFlow means over the repetitions and the final-loss
// spread; and the per-epoch loss of a 4-rank data-parallel CosmoFlow run
// over a ring allreduce, which reproduces fig7's single-replica base curve.
func convergenceCells(p Params) []sweep.Cell {
	cells := table("fig6", 5*p.Epochs, func() ([]sweep.Obs, error) {
		series, err := bench.Fig6(48, 2, 5*p.Epochs, p.Seed)
		if err != nil {
			return nil, err
		}
		var rows []sweep.Obs
		for s, b := range series[0].Losses {
			d := series[1].Losses[s]
			rows = append(rows, row("base decoded |diff|", "%.5f %.5f %.5f", b, d, math.Abs(b-d)))
		}
		return rows, nil
	})
	cells = append(cells, table("fig7", p.Epochs+1, func() ([]sweep.Obs, error) {
		res, err := bench.Fig7(32, 4, p.Epochs, p.Samples, p.Seed)
		if err != nil {
			return nil, err
		}
		var rows []sweep.Obs
		for e := 0; e < p.Epochs; e++ {
			var b, d float64
			for r := range res.Base {
				b += res.Base[r].Losses[e]
				d += res.Decoded[r].Losses[e]
			}
			rows = append(rows, row("base(mean) decoded(mean)", "%.5f %.5f", b/float64(p.Samples), d/float64(p.Samples)))
		}
		bm, bs := bench.FinalLossStats(res.Base)
		dm, ds := bench.FinalLossStats(res.Decoded)
		return append(rows, row("base-mean base-std decoded-mean decoded-std no-worse", "%.5f %.5f %.5f %.5f %t",
			bm, bs, dm, ds, dm <= bm && ds <= bs)), nil
	})...)
	return append(cells, table("ranks4", p.Epochs, func() ([]sweep.Obs, error) {
		cfg := train.Config{Samples: 32, Batch: 4, Epochs: p.Epochs, Seed: p.Seed, LR: 0.01, Warmup: 4}
		res, err := train.ElasticCosmoFlow(cosmo16(), cfg, train.ElasticConfig{Ranks: 4})
		if err != nil {
			return nil, err
		}
		var rows []sweep.Obs
		for _, l := range res.Losses {
			rows = append(rows, row("loss", "%.5f", l))
		}
		return rows, nil
	})...)
}

// cosmo16 is the miniature CosmoFlow volume the convergence runs train on.
func cosmo16() synthetic.CosmoConfig {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim = 16
	return cfg
}

// throughputCells: node samples/s per variant for every (platform, set,
// staging, batch) row of Figs 8, 10 and 11 in bench's sorted order, the
// headline maxima, and the Fig 9/12 per-sample stage milliseconds and node
// rate, replayed as obs spans on a virtual clock and rendered from the
// registry snapshot.
func throughputCells(Params) []sweep.Cell {
	var cells []sweep.Cell
	for _, fig := range []struct {
		name string
		rows int // platform x set x staging x batch
		run  func(float64) ([]bench.ThroughputRow, error)
	}{{"fig8", 3 * 2 * 2 * 4, bench.Fig8}, {"fig10", 3 * 2 * 4, bench.Fig10}, {"fig11", 3 * 2 * 4, bench.Fig11}} {
		cells = append(cells, table(fig.name, fig.rows, func() ([]sweep.Obs, error) {
			rs, err := fig.run(paperScale)
			bench.SortRows(rs)
			return printed(bench.FormatThroughput("", rs)), err
		})...)
	}
	cells = append(cells, table("headline", 1, func() ([]sweep.Obs, error) {
		h, err := bench.Headlines(paperScale)
		return []sweep.Obs{row("deepcam-small deepcam-at deepcam-max cosmoflow cosmoflow-at gzip-slowdown", "%.2f %s %.2f %.2f %s %.2f",
			h.DeepCAMSmallSetSpeedup, h.DeepCAMBestPlatform, h.DeepCAMCachingAmplifiedMax, h.CosmoMaxSpeedup, h.CosmoBestPlatform, h.GzipWorstSlowdown)}, err
	})...)
	for _, fig := range []struct {
		name string
		run  func(float64) ([]bench.BreakdownRow, error)
	}{{"fig9", bench.Fig9}, {"fig12", bench.Fig12}} {
		cells = append(cells, table(fig.name, 6, func() ([]sweep.Obs, error) {
			rs, err := fig.run(paperScale)
			reg := obs.NewRegistry()
			bench.ReplayBreakdown(reg, rs)
			return printed(bench.RenderBreakdown("", rs, reg.Snapshot())), err
		})...)
	}
	return cells
}

// modelCells: per platform, CosmoFlow time to solution (real epochs to loss
// 0.35 times each pipeline's modeled epoch time); then per app and
// platform, the weak-scaling projection of the GPU-plugin pipeline and the
// discrete-event node simulation's node rate and busy percentages.
func modelCells(p Params) []sweep.Cell {
	cells := table("tts", len(platform.All()), func() ([]sweep.Obs, error) {
		cfg := train.Config{Samples: 16, Batch: 4, Epochs: p.Epochs, Seed: p.Seed, LR: 0.01, Warmup: 4}
		rs, err := bench.TimeToSolution(paperScale, platform.All(), 0.35, cosmo16(), cfg)
		var rows []sweep.Obs
		for _, r := range rs {
			rows = append(rows, row("platform base-epochs s/epoch base-s plugin-epochs s/epoch-plugin plugin-s speedup", "%s %d %.1f %.1f %d %.1f %.1f %.2f",
				r.Platform, r.EpochsBase, r.EpochSecBase, r.TTSBase, r.EpochsPlugin, r.EpochSecPlugin, r.TTSPlugin, r.Speedup))
		}
		return rows, err
	})
	nodes := []int{1, 2, 4, 16, 64, 256, 1024}
	for _, app := range []core.App{core.DeepCAM, core.CosmoFlow} {
		for _, plat := range platform.All() {
			// scenario is the platform's small staged set at batch 4.
			scenario := func(enc core.Encoding, plug pipeline.Plugin) (bench.Scenario, error) {
				m, err := bench.Calibrate(app, paperScale)
				samples := bench.DeepCAMSmallPerNode
				if app == core.CosmoFlow {
					samples = bench.CosmoSmallPerGPU * plat.GPUsPerNode
				}
				return bench.Scenario{Platform: plat, Model: m, Enc: enc, Plugin: plug,
					SamplesPerNode: samples, Staged: true, Batch: 4, Epoch: 1}, err
			}
			cells = append(cells, table(fmt.Sprintf("scale/%s/%s", app, plat.Name), len(nodes), func() ([]sweep.Obs, error) {
				sc, err := scenario(core.Plugin, pipeline.GPUPlugin)
				if err != nil {
					return nil, err
				}
				rs, err := bench.ScaleOut(sc, nodes)
				return printed(bench.FormatScaleOut("", rs)), err
			})...)
			cells = append(cells, table(fmt.Sprintf("des/%s/%s", app, plat.Name), 2, func() ([]sweep.Obs, error) {
				var rows []sweep.Obs
				for _, v := range []struct {
					name string
					enc  core.Encoding
					plug pipeline.Plugin
				}{{"base", core.Baseline, pipeline.CPUPlugin}, {"gpu-plugin", core.Plugin, pipeline.GPUPlugin}} {
					sc, err := scenario(v.enc, v.plug)
					if err != nil {
						return nil, err
					}
					res, err := bench.SimulateNode(sc, 30, nil)
					if err != nil {
						return nil, err
					}
					rows = append(rows, row("variant node/s storage cpu0 link0 gpu0", "%s %.0f %.0f%% %.0f%% %.0f%% %.0f%%", v.name, res.Node,
						100*res.Busy["storage"], 100*res.Busy["cpu0"], 100*res.Busy["link0"], 100*res.Busy["gpu0"]))
				}
				return rows, nil
			})...)
		}
	}
	return cells
}

// faultCells: DeepCAM training under rising fault rates, each split evenly
// into blob corruption and transient I/O errors, with three retries and a
// 10% skip quota: the injector's event count, the loader's decode, retry
// and skip accounting, and the final loss against the clean run's.
func faultCells(p Params) []sweep.Cell {
	rates := []float64{0, 0.005, 0.01, 0.02, 0.05}
	return table("faults", len(rates), func() ([]sweep.Obs, error) {
		clim := synthetic.DefaultClimateConfig()
		clim.Channels, clim.Height, clim.Width = 4, 32, 48
		var rows []sweep.Obs
		var clean float64
		for _, rate := range rates {
			cfg := train.Config{
				Encoded: true, Samples: 48, Batch: 2, Steps: 5 * p.Epochs, Seed: p.Seed, LR: 0.01, Warmup: 4,
				Resilience: pipeline.Resilience{MaxRetries: 3, BackoffBase: 0.001, BackoffCap: 0.05, MaxBadSamples: 4},
			}
			if rate > 0 {
				cfg.Faults = &fault.Config{Seed: p.Seed + 1000003, Corrupt: rate / 2, Transient: rate / 2}
			}
			res, err := train.DeepCAMRun(clim, cfg)
			if err != nil {
				return nil, err
			}
			var decoded, retried, skipped int
			for _, e := range res.Epochs {
				decoded, retried, skipped = decoded+e.Decoded, retried+e.Retried, skipped+e.Skipped
			}
			final := res.Losses[len(res.Losses)-1]
			if rate == 0 {
				clean = final
			}
			rows = append(rows, row("rate injected decoded retried skipped epochs final-loss vs-clean", "%g %d %d %d %d %d %.4f %.2f",
				rate, len(res.Injections), decoded, retried, skipped, len(res.Epochs), final, 100*(final-clean)/clean))
		}
		return rows, nil
	})
}
