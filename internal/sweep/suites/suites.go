// Package suites declares the acceptance sweeps cmd/sweep runs on the
// internal/sweep harness. A suite only enumerates its axes, builds and runs
// one cell into a flat set of observations, and lists the expectations
// those observations must satisfy; the digest, the clean-twin comparison,
// reconciliation, output and the test drivers are the harness's.
package suites

import (
	"fmt"

	"scipp/internal/sweep"
)

// Params sizes a sweep. Samples, Epochs and Seed apply to every suite;
// Tenants to serve; the rest to train.
type Params struct {
	Samples, Epochs int
	Seed            uint64
	Tenants         int
	App             string
	Ranks, Batch    int
	CrashStep       int
	CheckpointEvery int
	CacheMB         int
}

// Suite is one sweep: its defaults, a check of command-line params, its
// cells at (checked) params, and the columns of its table.
type Suite struct {
	Name     string
	Defaults Params
	Check    func(Params) error
	Cells    func(Params) []sweep.Cell
	Columns  []sweep.Column
}

// Cell returns the named cell of s at p. It panics if the suite has no
// such cell: only code that knows the axis tables asks for one by name.
//
//lint:ignore deadcode the suites' tests and the retired commands' test shims run one cell by name with it
func (s Suite) Cell(p Params, name string) sweep.Cell {
	for _, c := range s.Cells(p) {
		if c.Name == name {
			return c
		}
	}
	panic(fmt.Sprintf("suite %s has no cell %q", s.Name, name))
}

// All lists the suites in `-suite` order.
func All() []Suite { return []Suite{Loader, Serve, Overload, Train, Paper} }
