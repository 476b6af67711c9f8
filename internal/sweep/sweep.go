// Package sweep is the repo's one acceptance harness: a suite enumerates
// cells, a cell's run records a flat set of named integer observations,
// and a declarative expectation table says what those observations must
// satisfy — delivered batches digest bit-identically to a fault-free twin,
// and every recovery counter reconciles exactly against the injector logs.
// The harness owns everything the suites used to copy: the FNV digest, the
// on-demand memoised twin, injector-log counting, expectation checking,
// table/JSON output, and (drivers.go) the test drivers.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"scipp/internal/fault"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// Obs is the flat set of named observations one cell's run recorded.
// Counters are stored as is; 64-bit digests and float bit patterns are
// stored bit-cast, under names containing "digest" (printed in hex).
type Obs map[string]int64

// Result is what one run observed. Info carries measurements that are
// printed but never reconciled or compared: wall-clock rates, float losses.
type Result struct {
	Obs  Obs
	Info map[string]float64
}

// Op is an expectation's comparison.
type Op string

const (
	EQ Op = "=="
	LE Op = "<="
	GE Op = ">="
)

// Expect is one row of a cell's expectation table: the sum of the Left
// observations compares (Op) to the sum of the Right observations plus
// Const. Why, when set, says what a violation means.
type Expect struct {
	Left  []string
	Op    Op
	Right []string
	Const int64
	Why   string
}

// Eq expects key == want.
func Eq(key string, want int64, why string) Expect {
	return Expect{Left: []string{key}, Op: EQ, Const: want, Why: why}
}

// AtMost expects key <= bound.
func AtMost(key string, bound int64, why string) Expect {
	return Expect{Left: []string{key}, Op: LE, Const: bound, Why: why}
}

// AtLeast expects key >= bound.
func AtLeast(key string, bound int64, why string) Expect {
	return Expect{Left: []string{key}, Op: GE, Const: bound, Why: why}
}

// Mirror expects two ledgers of one fact to agree: a == b.
func Mirror(a, b string) Expect {
	return Expect{Left: []string{a}, Op: EQ, Right: []string{b}}
}

// SumEq expects the parts to add up to total.
func SumEq(total string, parts ...string) Expect {
	return Expect{Left: []string{total}, Op: EQ, Right: parts}
}

func (o Obs) sum(keys []string) int64 {
	var s int64
	for _, k := range keys {
		s += o[k]
	}
	return s
}

func (e Expect) holds(o Obs) bool {
	l, r := o.sum(e.Left), o.sum(e.Right)+e.Const
	switch e.Op {
	case EQ:
		return l == r
	case LE:
		return l <= r
	case GE:
		return l >= r
	}
	return false
}

func (e Expect) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(e.Left, " + "))
	fmt.Fprintf(&b, " %s ", e.Op)
	if len(e.Right) > 0 {
		b.WriteString(strings.Join(e.Right, " + "))
		if e.Const != 0 {
			fmt.Fprintf(&b, " + %d", e.Const)
		}
	} else {
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}

// Check returns the first expectation o violates, or nil.
func Check(o Obs, table []Expect) error {
	for _, e := range table {
		if e.holds(o) {
			continue
		}
		var got []string
		for _, k := range append(append([]string(nil), e.Left...), e.Right...) {
			got = append(got, k+"="+Format(k, o[k]))
		}
		msg := fmt.Sprintf("expected %s, got %s", e, strings.Join(got, " "))
		if e.Why != "" {
			msg += " (" + e.Why + ")"
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// far pushes an observation past any bound an inequality could set.
const far = int64(1) << 40

// Unguarded returns, sorted, the observations no expectation reads: the
// keys for which a perturbation by one in either direction, and by far in
// either direction (an inequality notices only a push past its bound),
// still satisfies the whole table. Twin observations are reference values,
// not claims, so an unread one is not reported.
func Unguarded(o Obs, table []Expect) []string {
	var loose []string
	for k, v := range o {
		guarded := strings.HasPrefix(k, "twin.")
		for _, d := range []int64{1, -1, far, -far} {
			if guarded {
				break
			}
			o[k] = v + d
			guarded = Check(o, table) != nil
		}
		o[k] = v
		if !guarded {
			loose = append(loose, k)
		}
	}
	sort.Strings(loose)
	return loose
}

// Cell is one sweep configuration. Run executes it; Twin, when set, is the
// fault-free reference whose observations are merged in under a "twin."
// prefix before Expect is checked. A twin may be another enumerated cell
// or one that exists only as a reference; either way it runs at most once
// per Runner, on demand, so any single cell can run by itself.
type Cell struct {
	Name   string
	Run    func() (Result, error)
	Twin   *Cell
	Expect []Expect
}

// Runner memoises cell runs by name so cells sharing a twin share its run.
type Runner struct {
	memo map[string]Result
}

func NewRunner() *Runner { return &Runner{memo: map[string]Result{}} }

func (r *Runner) raw(c Cell) (Result, error) {
	if res, ok := r.memo[c.Name]; ok {
		return res, nil
	}
	res, err := c.Run()
	if err != nil {
		return res, fmt.Errorf("%s: %w", c.Name, err)
	}
	r.memo[c.Name] = res
	return res, nil
}

// Run executes c (and its twin, if not yet run) and checks c's table.
func (r *Runner) Run(c Cell) (Result, error) {
	res := Result{Obs: Obs{}, Info: map[string]float64{}}
	merge := func(prefix string, from Cell) error {
		got, err := r.raw(from)
		for k, v := range got.Obs {
			res.Obs[prefix+k] = v
		}
		for k, v := range got.Info {
			res.Info[prefix+k] = v
		}
		return err
	}
	if err := merge("", c); err != nil {
		return res, err
	}
	if c.Twin != nil {
		if err := merge("twin.", *c.Twin); err != nil {
			return res, fmt.Errorf("%s: twin %w", c.Name, err)
		}
	}
	if err := Check(res.Obs, c.Expect); err != nil {
		return res, fmt.Errorf("%s: %w", c.Name, err)
	}
	return res, nil
}

// FNVOffset seeds a digest.
const FNVOffset = uint64(0xcbf29ce484222325)

// fold is one FNV-1a step over a 64-bit word.
func fold(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = (h ^ (v >> s & 0xFF)) * 0x100000001b3
	}
	return h
}

// DigestSample folds one delivered sample: its dataset index, then the
// bits of every element widened to float32.
func DigestSample(h uint64, index int, t *tensor.Tensor) uint64 {
	h = fold(h, uint64(index))
	for i := 0; i < t.Elems(); i++ {
		h = fold(h, uint64(math.Float32bits(t.At32(i))))
	}
	return h
}

// DigestBatch folds every sample of b.
func DigestBatch(h uint64, b *pipeline.Batch) uint64 {
	for s, t := range b.Data {
		h = DigestSample(h, b.Indices[s], t)
	}
	return h
}

// DigestPadded folds a padded batch: indices and lengths, then the data
// bits and the mask bits, so padding and masking are part of the contract.
func DigestPadded(h uint64, pb *pipeline.PaddedBatch) uint64 {
	for s := 0; s < pb.Size(); s++ {
		h = fold(h, uint64(pb.Indices[s]))
		h = fold(h, uint64(pb.Lengths[s]))
	}
	for _, v := range pb.Data.F32s {
		h = fold(h, uint64(math.Float32bits(v)))
	}
	for _, v := range pb.Mask.F32s {
		h = fold(h, uint64(math.Float32bits(v)))
	}
	return h
}

// DigestFloats folds float64 bit patterns (per-epoch losses).
func DigestFloats(vs []float64) uint64 {
	h := FNVOffset
	for _, v := range vs {
		h = fold(h, math.Float64bits(v))
	}
	return h
}

// Count returns how many entries of an injector log are of kind.
func Count(log []fault.Injection, kind fault.Kind) int64 {
	var n int64
	for _, in := range log {
		if in.Kind == kind {
			n++
		}
	}
	return n
}

// isDigest reports whether key names a bit-cast 64-bit digest.
func isDigest(key string) bool { return strings.Contains(key, "digest") }

// Format renders one observation: digests in hex, the rest in decimal.
func Format(key string, v int64) string {
	if isDigest(key) {
		return fmt.Sprintf("%016x", uint64(v))
	}
	return fmt.Sprintf("%d", v)
}

// Column is one column of a suite's table.
type Column struct {
	Head  string
	Width int
	Value func(Result) string
}

// ObsColumn prints one observation.
func ObsColumn(head string, width int, key string) Column {
	return Column{head, width, func(r Result) string { return Format(key, r.Obs[key]) }}
}

// Row is one finished cell.
type Row struct {
	Name string
	Result
}

// Table runs cells in order through one Runner, printing a row as each
// finishes, and stops at the first cell that fails.
func Table(w io.Writer, cells []Cell, cols []Column) ([]Row, error) {
	line := func(name string, ident string, value func(Column) string) error {
		var b strings.Builder
		fmt.Fprintf(&b, "%-28s", name)
		for _, c := range cols {
			fmt.Fprintf(&b, " %*s", c.Width, value(c))
		}
		fmt.Fprintf(&b, " %6s\n", ident)
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := line("cell", "ident", func(c Column) string { return c.Head }); err != nil {
		return nil, err
	}
	r := NewRunner()
	var rows []Row
	for _, c := range cells {
		res, err := r.Run(c)
		if err != nil {
			return rows, err
		}
		ident := "-"
		if c.Twin != nil {
			ident = "yes"
		}
		if err := line(c.Name, ident, func(col Column) string { return col.Value(res) }); err != nil {
			return rows, err
		}
		rows = append(rows, Row{c.Name, res})
	}
	return rows, nil
}

// WriteJSON emits the header fields plus "cells": each cell's name, its
// observations (digests as hex strings) and its Info.
func WriteJSON(w io.Writer, header map[string]any, rows []Row) error {
	cells := make([]map[string]any, len(rows))
	for i, row := range rows {
		obs := map[string]any{}
		for k, v := range row.Obs {
			if obs[k] = any(v); isDigest(k) {
				obs[k] = Format(k, v)
			}
		}
		cells[i] = map[string]any{"name": row.Name, "obs": obs}
		if len(row.Info) > 0 {
			cells[i]["info"] = row.Info
		}
	}
	doc := map[string]any{"cells": cells}
	for k, v := range header {
		doc[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
