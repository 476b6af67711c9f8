// Command sweep runs one of the repo's acceptance sweeps on the
// internal/sweep harness and exits non-zero if any cell fails to digest
// bit-identically to its fault-free twin or to reconcile its counters
// against the injector logs.
//
//	sweep -suite loader            # fault mix x placement x cache, plus the scenario matrix
//	sweep -suite serve -tenants 3  # multi-tenant data service
//	sweep -suite overload          # overload protection and tier failover
//	sweep -suite train -app deepcam
//	sweep -suite paper             # the paper's tables and figures
//
// Unset size flags take the suite's own defaults.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"scipp/internal/sweep"
	"scipp/internal/sweep/suites"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// parse reads the command line into p, whose incoming values are the
// flag defaults.
func parse(args []string, p *suites.Params) (suite, jsonPath string, err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.StringVar(&suite, "suite", "", "which sweep to run: "+suiteNames())
	fs.IntVar(&p.Samples, "samples", p.Samples, "dataset size")
	fs.IntVar(&p.Epochs, "epochs", p.Epochs, "epochs per cell")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "base seed (schedules, model init and faults)")
	fs.IntVar(&p.Tenants, "tenants", p.Tenants, "serve: concurrent tenants per cell")
	fs.StringVar(&p.App, "app", p.App, "train: deepcam or cosmoflow")
	fs.IntVar(&p.Ranks, "ranks", p.Ranks, "train: initial data-parallel rank count")
	fs.IntVar(&p.Batch, "batch", p.Batch, "train: global batch size")
	fs.IntVar(&p.CrashStep, "crash-step", p.CrashStep, "train: step at which the crash/hang scenarios kill a rank")
	fs.IntVar(&p.CheckpointEvery, "checkpoint-every", p.CheckpointEvery, "train: epoch cadence of checkpoints (0 disables)")
	fs.IntVar(&p.CacheMB, "cache-mb", p.CacheMB, "train: host-memory sample cache in MiB (0 = uncached; caching never changes loss)")
	fs.StringVar(&jsonPath, "json", "", "also write every cell's observations as JSON to this path")
	return suite, jsonPath, fs.Parse(args)
}

// suiteNames lists the suites in -suite order.
func suiteNames() string {
	var names []string
	for _, s := range suites.All() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout io.Writer) error {
	// Two passes: the first learns the suite, the second parses over that
	// suite's defaults, so unset flags keep what the suite's sweep always ran.
	name, _, err := parse(args, new(suites.Params))
	if err != nil {
		return err
	}
	var s suites.Suite
	for _, c := range suites.All() {
		if c.Name == name {
			s = c
		}
	}
	if s.Cells == nil {
		return fmt.Errorf("-suite %q: want %s (-h lists the flags)", name, suiteNames())
	}
	q := s.Defaults
	_, jsonPath, err := parse(args, &q)
	if err != nil {
		return err
	}
	q.App = strings.ToLower(q.App)
	if s.Check != nil {
		if err := s.Check(q); err != nil {
			return err
		}
	}
	rows, err := sweep.Table(stdout, s.Cells(q), s.Columns)
	if err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	var js bytes.Buffer
	header := map[string]any{"suite": s.Name, "samples": q.Samples, "epochs": q.Epochs, "seed": q.Seed}
	if err := sweep.WriteJSON(&js, header, rows); err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, js.Bytes(), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "wrote %s\n", jsonPath)
	return err
}
