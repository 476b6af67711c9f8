package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scipp/internal/sweep/suites"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// sweepFile is the shape -json writes and the goldens are committed in.
type sweepFile struct {
	Suite   string `json:"suite"`
	Samples int    `json:"samples"`
	Epochs  int    `json:"epochs"`
	Seed    uint64 `json:"seed"`
	Cells   []struct {
		Name string             `json:"name"`
		Obs  map[string]any     `json:"obs"`
		Info map[string]float64 `json:"info,omitempty"`
	} `json:"cells"`
}

func readSweepFile(t *testing.T, path string) sweepFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f sweepFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return f
}

// golden is the one golden driver: it runs suite through the command line
// with args (the golden's own size) and fails unless the run has the cells
// of testdata/<suite>.golden.json, in order, with exactly its values for
// every observation pin selects. With -update it first rewrites the file
// from this run, keeping only pinned observations. It returns the run.
func golden(t *testing.T, suite string, pin func(key string) bool, args ...string) sweepFile {
	t.Helper()
	path := filepath.Join("testdata", suite+".golden.json")
	out := filepath.Join(t.TempDir(), suite+".json")
	var stdout bytes.Buffer
	if err := run(append([]string{"-suite", suite, "-json", out}, args...), &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	got := readSweepFile(t, out)
	if *update {
		pinned := got
		pinned.Cells = append(pinned.Cells[:0:0], got.Cells...)
		for i, c := range got.Cells {
			pinned.Cells[i].Info = nil
			pinned.Cells[i].Obs = map[string]any{}
			for k, v := range c.Obs {
				if pin(k) {
					pinned.Cells[i].Obs[k] = v
				}
			}
		}
		data, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readSweepFile(t, path)
	if want.Suite != got.Suite || want.Samples != got.Samples || want.Epochs != got.Epochs || want.Seed != got.Seed || len(want.Cells) != len(got.Cells) {
		t.Fatalf("golden is %s, %d cells at %d/%d/%d; run was %s, %d cells at %d/%d/%d", want.Suite, len(want.Cells),
			want.Samples, want.Epochs, want.Seed, got.Suite, len(got.Cells), got.Samples, got.Epochs, got.Seed)
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if g.Name != w.Name {
			t.Fatalf("cell %d is %q, golden has %q", i, g.Name, w.Name)
		}
		for k, v := range w.Obs {
			if g.Obs[k] != v {
				t.Errorf("%s: %s = %v, golden has %v", w.Name, k, g.Obs[k], v)
			}
		}
		for k, v := range g.Obs {
			if _, ok := w.Obs[k]; pin(k) && !ok {
				t.Errorf("%s: %s = %v is not in the golden", w.Name, k, v)
			}
		}
	}
	return got
}

// TestLoaderGolden pins every loader cell's digest and time-to-quality
// step count: pipeline output or convergence behaviour drifted. Those two
// are what every cell delivered and how fast a probe learns from it, and
// both are exact on every machine — unlike the throughput the retired
// scenario gate also tracked.
func TestLoaderGolden(t *testing.T) {
	got := golden(t, "loader", func(k string) bool { return k == "digest" || k == "ttq_steps" },
		"-samples", "32", "-epochs", "5", "-seed", "1")
	if len(got.Cells) != 28 {
		t.Fatalf("-json wrote %d cells", len(got.Cells))
	}
	if got.Cells[16].Info["samples_per_s"] <= 0 {
		t.Errorf("%s: no throughput in -json info: %v", got.Cells[16].Name, got.Cells[16].Info)
	}
}

// TestPaperGolden pins every observation of the paper suite — modeled
// throughput, breakdown milliseconds, codec ratios and error tails,
// convergence losses — at a size that runs in seconds: a PR that moves a
// number EXPERIMENTS.md quotes against the paper fails here until the
// golden is regenerated with -update and the move is explained.
func TestPaperGolden(t *testing.T) {
	golden(t, "paper", func(string) bool { return true }, "-samples", "1", "-epochs", "3", "-seed", "1")
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-suite"},
		{[]string{"-suite", "chaosloader"}, "-suite"},
		{[]string{"-suite", "serve", "-tenants", "0"}, "-tenants"},
		{[]string{"-suite", "overload", "-samples", "4"}, "-samples"},
		{[]string{"-suite", "train", "-app", "resnet"}, "-app"},
		{[]string{"-suite", "train", "-crash-step", "99"}, "crash step"},
		{[]string{"-suite", "loader", "-bogus"}, "bogus"},
		{[]string{"-suite", "paper", "-epochs", "0"}, "-epochs"},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want mention of %q", tc.args, err, tc.want)
		}
	}
	// An unknown suite's error names every suite there is.
	err := run([]string{"-suite", "chaosloader"}, io.Discard)
	for _, s := range suites.All() {
		if err == nil || !strings.Contains(err.Error(), s.Name) {
			t.Errorf("unknown-suite error %v does not name %s", err, s.Name)
		}
	}
}

// TestSuiteDefaults pins that an unset size flag keeps what each retired
// command ran by default, and that a set one overrides only itself.
func TestSuiteDefaults(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-suite", "serve", "-epochs", "1"}, &stdout); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 9 || !strings.HasPrefix(lines[1], "clean/cosmo") {
		t.Fatalf("want a header and the eight serve cells:\n%s", stdout.String())
	}
	// served = the default 3 tenants x the default 32 samples x -epochs 1,
	// decodes = one per sample.
	if f := strings.Fields(lines[1]); f[1] != "96" || f[2] != "32" {
		t.Fatalf("row %q: want 96 served, 32 decodes", lines[1])
	}
}
