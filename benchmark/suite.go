package main

//lint:file-ignore uncheckederr report lines go to an injected io.Writer (stdout, or a test's buffer); a failed write has nowhere better to go

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// runRecord is one child run as kept in a results file.
type runRecord struct {
	Workload string `json:"workload"`
	result
}

// resultsFile is what running every workload writes, and what -compare
// reads.
type resultsFile struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Quick   bool        `json:"quick"`
	Go      string      `json:"go"`
	Cores   int         `json:"cores"`
	Runs    []runRecord `json:"runs"`
}

// runSuite runs every workload repeat times, each run in a fresh child
// process (so that pool, GC and RSS state never leak between runs), then prints each metric's median and quartiles and writes all
// runs to <out>/results.json.
func runSuite(out io.Writer, o options, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick, Go: runtime.Version(), Cores: runtime.GOMAXPROCS(0)}
	allCorrect := true
	// Repeat-major order: each pass runs every workload once, so a slow
	// spell on the machine touches a run or two of each workload rather
	// than every run of one.
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name,
				"-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(o.trace),
				"-out", o.outDir,
			}
			if o.quick {
				args = append(args, "-quick")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d printed no result (%v): %w", w.name, r+1, runErr, err)
			}
			allCorrect = allCorrect && res.Correct && runErr == nil
			file.Runs = append(file.Runs, runRecord{w.name, res})
			fmt.Fprintf(out, "%s run %d/%d: correct=%v attempted=%d failed=%d\n", w.name, r+1, repeat, res.Correct, res.Attempted, res.Failed)
		}
	}
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "\n%s\n  %-40s %14s %14s %14s %3s  %s\n", w.name, "metric", "median", "q1", "q3", "n", "unit")
		for _, d := range defs {
			xs := file.values(w.name, d.Name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(out, "  %-40s %14.6g %14.6g %14.6g %3d  %s\n", d.Name, median(xs), q1, q3, len(xs), d.Unit)
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nall runs written to %s\n", path)
	if !allCorrect {
		return fmt.Errorf("at least one run failed or delivered a wrong sample")
	}
	return nil
}

// values collects one metric of one workload over the file's runs.
func (f *resultsFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// quartiles returns the first and third quartile of xs (both the single
// value when there is only one).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	return quantile(s, 1, 4), quantile(s, 3, 4)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the ratio b/a, how much worse b is as a share of a's median, the
// bound, and a verdict. A metric regressed when b's median is worse than
// a's by more than the bound and by more than the runs' own spread; it is
// unresolved when the spread (quartile distance over median, the wider
// side) exceeds the bound, unless every run of b reads better than every
// run of a.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a = %s (%d runs), b = %s (%d runs); ratio is b/a\n", pathA, len(a.Runs), pathB, len(b.Runs))
	fmt.Fprintf(out, "%-22s %-20s %13s %13s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "ratio", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.values(w.name, d.Name), b.values(w.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(d, xa, xb)
			if v.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(out, "%-22s %-20s %13.6g %13.6g %8.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, v.medA, v.medB, v.medB/v.medA, 100*v.worse, 100*v.spread, 100*d.Bound, v.verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

type judgement struct {
	medA, medB, worse, spread float64
	verdict                   string
}

// judge applies the benchmark's regression rule to one metric's runs.
func judge(d metricDef, xa, xb []float64) judgement {
	j := judgement{medA: median(xa), medB: median(xb)}
	j.worse = (j.medB - j.medA) / j.medA
	if d.Better == "higher" {
		j.worse = -j.worse
	}
	spreadOf := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	j.spread = max(spreadOf(xa), spreadOf(xb))
	sa, sb := sorted(xa), sorted(xb)
	allBetter := sb[len(sb)-1] < sa[0]
	if d.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case j.worse > d.Bound && j.worse > j.spread:
		j.verdict = "regressed"
	case j.spread > d.Bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "ok"
	}
	return j
}
