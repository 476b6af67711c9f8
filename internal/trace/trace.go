// Package trace records activities on a virtual-time axis, powering the
// execution-profile breakdowns of Figs 9 and 12 ("we present key grouped
// activities for two timelines during the execution, the host CPU timeline
// and the accelerator GPU timeline").
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is one activity on one resource, in virtual seconds.
type Event struct {
	Resource string // e.g. "cpu", "gpu0", "link"
	Tag      string // activity group, e.g. "read", "h2d", "decode"
	Start    float64
	End      float64
}

// Duration returns the event length.
func (e Event) Duration() float64 { return e.End - e.Start }

// Timeline collects events; safe for concurrent Add.
type Timeline struct {
	mu     sync.Mutex
	events []Event
}

// Add records an activity. Zero- or negative-length events are dropped.
func (t *Timeline) Add(resource, tag string, start, end float64) {
	if end <= start {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Resource: resource, Tag: tag, Start: start, End: end})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time.
//
//lint:ignore deadcode the trace and obs tests read recorded events with it
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded events.
//
//lint:ignore deadcode the timeline tests of bench, gpusim and pipeline count events with it
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Span returns the distance from the earliest start to the latest end.
func (t *Timeline) Span() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return 0
	}
	lo, hi := t.events[0].Start, t.events[0].End
	for _, e := range t.events[1:] {
		if e.Start < lo {
			lo = e.Start
		}
		if e.End > hi {
			hi = e.End
		}
	}
	return hi - lo
}

// Breakdown sums durations per tag across all resources.
func (t *Timeline) Breakdown() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64)
	for _, e := range t.events {
		out[e.Tag] += e.Duration()
	}
	return out
}

// ResourceBreakdown sums durations per resource, per tag.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (t *Timeline) ResourceBreakdown() map[string]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]map[string]float64)
	for _, e := range t.events {
		m := out[e.Resource]
		if m == nil {
			m = make(map[string]float64)
			out[e.Resource] = m
		}
		m[e.Tag] += e.Duration()
	}
	return out
}

// Busy returns the total busy time (union of intervals) on one resource.
// Overlapping events are counted once.
func (t *Timeline) Busy(resource string) float64 {
	t.mu.Lock()
	var iv []Event
	for _, e := range t.events {
		if e.Resource == resource {
			iv = append(iv, e)
		}
	}
	t.mu.Unlock()
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	total := 0.0
	curS, curE := iv[0].Start, iv[0].End
	for _, e := range iv[1:] {
		if e.Start > curE {
			total += curE - curS
			curS, curE = e.Start, e.End
			continue
		}
		if e.End > curE {
			curE = e.End
		}
	}
	return total + (curE - curS)
}

// Reset discards all events.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (t *Timeline) Reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// FormatBreakdown renders a per-tag breakdown as aligned text rows sorted by
// descending share, for cmd/profile's output.
func FormatBreakdown(b map[string]float64) string {
	type row struct {
		tag string
		d   float64
	}
	rows := make([]row, 0, len(b))
	total := 0.0
	for tag, d := range b {
		rows = append(rows, row{tag, d})
		total += d
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].d != rows[j].d {
			return rows[i].d > rows[j].d
		}
		return rows[i].tag < rows[j].tag
	})
	var sb strings.Builder
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * r.d / total
		}
		fmt.Fprintf(&sb, "  %-16s %10.3f ms  %5.1f%%\n", r.tag, r.d*1e3, pct)
	}
	return sb.String()
}
