package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/loader.golden.json from this run")

// sweepFile is the shape -json writes and the golden is committed in.
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

// TestLoaderGolden runs the loader suite end to end through the command
// line at the golden's own size and fails if any cell's digest or
// time-to-quality step count disagrees with the committed file: pipeline
// output or convergence behaviour drifted. Those two are what every cell
// delivered and how fast a probe learns from it, and both are exact on
// every machine — unlike the throughput the retired scenario gate also
// tracked.
func TestLoaderGolden(t *testing.T) {
	const golden = "testdata/loader.golden.json"
	out := filepath.Join(t.TempDir(), "loader.json")
	var stdout bytes.Buffer
	if err := run([]string{"-suite", "loader", "-samples", "32", "-epochs", "5", "-seed", "1", "-json", out}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	got := readSweepFile(t, out)
	if len(got.Cells) != 28 || got.Suite != "loader" || got.Epochs != 5 {
		t.Fatalf("-json wrote suite %q, %d epochs, %d cells", got.Suite, got.Epochs, len(got.Cells))
	}
	if got.Cells[16].Info["samples_per_s"] <= 0 {
		t.Errorf("%s: no throughput in -json info: %v", got.Cells[16].Name, got.Cells[16].Info)
	}
	if *update {
		pinned := got
		pinned.Cells = append(pinned.Cells[:0:0], got.Cells...)
		for i, c := range got.Cells {
			pinned.Cells[i].Info = nil
			pinned.Cells[i].Obs = map[string]any{"digest": c.Obs["digest"]}
			if ttq, ok := c.Obs["ttq_steps"]; ok {
				pinned.Cells[i].Obs["ttq_steps"] = ttq
			}
		}
		data, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readSweepFile(t, golden)
	if want.Samples != got.Samples || want.Epochs != got.Epochs || want.Seed != got.Seed || len(want.Cells) != len(got.Cells) {
		t.Fatalf("golden is for %d cells at %d/%d/%d, run was %d cells at %d/%d/%d", len(want.Cells),
			want.Samples, want.Epochs, want.Seed, len(got.Cells), got.Samples, got.Epochs, got.Seed)
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
	}
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
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want mention of %q", tc.args, err, tc.want)
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
