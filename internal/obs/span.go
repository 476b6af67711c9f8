package obs

import (
	"scipp/internal/trace"
)

// Tracer emits per-stage spans: each completed span records one observation
// into the stage's duration histogram ("<stage>.seconds") and bumps the
// stage's span counter ("<stage>.spans") in the backing registry. Durations
// come from the tracer's trace.Clock, so a trace.VirtualClock makes every
// recorded duration exact. A nil *Tracer (the disabled path) starts and ends
// spans for the cost of a nil check.
//
// Hot loops should resolve a *StageTimer once per stage and start spans from
// it: Tracer.Start re-resolves the stage's instruments (two registry lookups
// and two name concatenations) on every End, which the per-sample path
// cannot afford.
type Tracer struct {
	reg   *Registry
	clock trace.Clock
}

// NewTracer returns a tracer recording into reg on clock. A nil reg or nil
// clock yields a nil (disabled) tracer.
func NewTracer(reg *Registry, clock trace.Clock) *Tracer {
	if reg == nil || clock == nil {
		return nil
	}
	return &Tracer{reg: reg, clock: clock}
}

// StageTimer is a per-stage span factory with its instruments resolved once:
// starting and ending a span through it touches no registry locks and
// allocates nothing, which is what lets the stage DAG afford a span per
// sample. A nil *StageTimer (from a nil tracer) is a true no-op.
type StageTimer struct {
	clock trace.Clock
	hist  *Histogram
	spans *Counter
}

// Stage resolves the named stage's instruments into a reusable StageTimer.
// Nil on a nil receiver.
func (t *Tracer) Stage(stage string) *StageTimer {
	if t == nil {
		return nil
	}
	return &StageTimer{
		clock: t.clock,
		hist:  t.reg.Histogram(stage+".seconds", DurationBuckets()),
		spans: t.reg.Counter(stage + ".spans"),
	}
}

// Start opens a span on the pre-resolved stage. On a nil timer it returns
// the zero Span without touching any clock.
func (st *StageTimer) Start() Span {
	if st == nil {
		return Span{}
	}
	return Span{st: st, start: st.clock.Now()}
}

// Span is one in-flight stage activity. The zero Span (from a nil tracer or
// nil StageTimer) ends as a no-op.
type Span struct {
	st    *StageTimer
	start float64
}

// Start opens a span for the named stage, resolving its instruments on the
// spot. On a nil tracer it returns the zero Span without touching any clock.
// Per-sample call sites should resolve a StageTimer once instead.
func (t *Tracer) Start(stage string) Span {
	return t.Stage(stage).Start()
}

// End closes the span, recording its duration. Safe on the zero Span.
func (s Span) End() {
	if s.st == nil {
		return
	}
	s.st.hist.Observe(s.st.clock.Now() - s.start)
	s.st.spans.Inc()
}
