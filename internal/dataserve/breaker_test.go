package dataserve

import (
	"strings"
	"testing"

	"scipp/internal/obs"
)

// bareTenant builds a Tenant detached from any service, with just enough
// wiring (breaker + instruments) to drive the breaker state machine
// directly. The tests own the locking discipline the service mutex normally
// provides.
func bareTenant(cfg BreakerConfig) *Tenant {
	return &Tenant{
		name: "unit",
		brk:  newBreaker(cfg),
		to:   newTenantObs(obs.NewRegistry(), "unit"),
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[breakerState]string{
		breakerClosed:   "closed",
		breakerOpen:     "open",
		breakerHalfOpen: "half-open",
		breakerState(9): "invalid",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("breakerState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestBreakerConfigDefaults(t *testing.T) {
	c := BreakerConfig{Threshold: 3}.withDefaults()
	if c.Window != 16 || c.Backoff != 0.05 || c.maxBackoff() != 64*0.05 {
		t.Fatalf("zero-value defaults wrong: %+v", c)
	}
	c = BreakerConfig{Threshold: 3, Window: 4, Backoff: 2}.withDefaults()
	if c.maxBackoff() != 128 {
		t.Fatalf("backoff cap = %g, want 64*Backoff = 128", c.maxBackoff())
	}
	explicit := BreakerConfig{Threshold: 3, Window: 8, Backoff: 1}
	if got := explicit.withDefaults(); got != explicit {
		t.Fatalf("explicit config rewritten: %+v", got)
	}
}

// TestBreakerFullCycle drives the state machine through every transition:
// closed -> open (trip), open -> half-open (backoff elapsed), half-open ->
// open (failed probe, backoff doubles then caps), half-open -> closed
// (successful probe, window and backoff reset).
func TestBreakerFullCycle(t *testing.T) {
	tn := bareTenant(BreakerConfig{Threshold: 2, Window: 4, Backoff: 1})
	b := tn.brk
	now := 0.0

	if allow, probe := tn.admitBreakerLocked(now); !allow || probe {
		t.Fatalf("closed breaker admission = (%v, %v), want plain allow", allow, probe)
	}
	tn.recordBreakerLocked(false, true, now)
	tn.recordBreakerLocked(false, true, now)
	if b.state != breakerOpen {
		t.Fatalf("state after %d failures = %v, want open", b.cfg.Threshold, b.state)
	}
	if allow, _ := tn.admitBreakerLocked(now); allow {
		t.Fatal("open breaker admitted a request inside the backoff window")
	}

	// Backoff elapses: the next admission is the half-open probe, and only
	// one — a second admission fast-fails until the probe resolves.
	now = b.until
	allow, probe := tn.admitBreakerLocked(now)
	if !allow || !probe {
		t.Fatalf("post-backoff admission = (%v, %v), want the probe", allow, probe)
	}
	if allow, _ := tn.admitBreakerLocked(now); allow {
		t.Fatal("second half-open admission allowed while the probe is in flight")
	}
	// Straggler outcomes (non-probe) decide nothing in half-open; neither
	// do any outcomes while open.
	tn.recordBreakerLocked(false, true, now)
	if b.state != breakerHalfOpen {
		t.Fatalf("straggler outcome moved state to %v", b.state)
	}

	// Probe fails: reopen with backoff doubled (1 -> 2).
	tn.recordBreakerLocked(true, true, now)
	if b.state != breakerOpen || b.backoff != 2 {
		t.Fatalf("after failed probe state=%v backoff=%g, want open/2", b.state, b.backoff)
	}
	tn.recordBreakerLocked(false, false, now) // open: pure straggler, ignored
	if b.state != breakerOpen {
		t.Fatalf("straggler closed an open breaker: %v", b.state)
	}

	// Five more failed probes double the backoff to its cap, 64*Backoff;
	// the next one leaves it there.
	for want := 4.0; want <= 128; want *= 2 {
		now = b.until
		if _, probe := tn.admitBreakerLocked(now); !probe {
			t.Fatalf("probe toward backoff %g not admitted", want)
		}
		tn.recordBreakerLocked(true, true, now)
		if capped := min(want, 64); b.backoff != capped {
			t.Fatalf("backoff after failed probe = %g, want %g", b.backoff, capped)
		}
	}

	// Successful probe: closed, window and backoff reset.
	now = b.until
	if _, probe := tn.admitBreakerLocked(now); !probe {
		t.Fatal("closing probe not admitted")
	}
	tn.recordBreakerLocked(true, false, now)
	if b.state != breakerClosed || b.backoff != 1 || b.fails != 0 || b.filled != 0 {
		t.Fatalf("after successful probe: state=%v backoff=%g fails=%d filled=%d, want closed/1/0/0",
			b.state, b.backoff, b.fails, b.filled)
	}
	if v := b.invariantViolation(); v != "" {
		t.Fatalf("invariant violated after full cycle: %s", v)
	}

	// One trip from closed plus seven failed probes; eight probes in all.
	st := tn.Stats()
	if trips, probes, rejects := st.BreakerTrips, st.BreakerProbes, st.BreakerRejects; trips != 8 || probes != 8 || rejects != 2 {
		t.Fatalf("counters trips/probes/rejects = %d/%d/%d, want 8/8/2", trips, probes, rejects)
	}
}

// TestBreakerDisabled pins the zero-value contract: without a breaker
// (nil brk) every admission passes and outcomes are dropped on the floor.
func TestBreakerDisabled(t *testing.T) {
	tn := &Tenant{name: "plain"}
	for i := 0; i < 4; i++ {
		if allow, probe := tn.admitBreakerLocked(0); !allow || probe {
			t.Fatalf("nil breaker admission = (%v, %v)", allow, probe)
		}
		tn.recordBreakerLocked(false, true, 0)
	}
	tn.breakerAbortProbeLocked() // no-op without a breaker
}

// TestBreakerAbortProbe checks the release path: aborting the in-flight
// probe lets the next admission probe instead, and aborting outside
// half-open changes nothing.
func TestBreakerAbortProbe(t *testing.T) {
	tn := bareTenant(BreakerConfig{Threshold: 1, Window: 2, Backoff: 1})
	b := tn.brk
	tn.recordBreakerLocked(false, true, 0)

	// Outside half-open the abort is a no-op.
	tn.breakerAbortProbeLocked()
	if b.state != breakerOpen {
		t.Fatalf("abort outside half-open moved state to %v", b.state)
	}

	now := b.until
	if _, probe := tn.admitBreakerLocked(now); !probe {
		t.Fatal("probe not admitted after backoff")
	}
	tn.breakerAbortProbeLocked()
	if b.probing {
		t.Fatal("probe still marked in flight after abort")
	}
	if _, probe := tn.admitBreakerLocked(now); !probe {
		t.Fatal("released probe slot not re-admitted")
	}
}

// TestBreakerInvariantViolations corrupts each field the fuzz oracle
// guards and checks it names the breach — the oracle is only as strong as
// the violations it can see.
func TestBreakerInvariantViolations(t *testing.T) {
	fresh := func() *breaker { return newBreaker(BreakerConfig{Threshold: 2, Window: 4}) }
	cases := []struct {
		name   string
		mutate func(b *breaker)
		want   string
	}{
		{"state range", func(b *breaker) { b.state = breakerState(7) }, "state out of range"},
		{"filled overflow", func(b *breaker) { b.filled = 5 }, "filled outside window"},
		{"pos overflow", func(b *breaker) { b.pos = 4 }, "ring position outside window"},
		{"fails drift", func(b *breaker) { b.fails = 1 }, "failure count disagrees"},
		{"fails drift wrapped", func(b *breaker) {
			b.filled = 4
			b.window[0], b.window[2] = true, true
			b.fails = 1
		}, "failure count disagrees"},
		{"backoff under", func(b *breaker) { b.backoff = 0.001 }, "backoff outside"},
		{"backoff over", func(b *breaker) { b.backoff = 1e9 }, "backoff outside"},
		{"phantom probe", func(b *breaker) { b.probing = true }, "probe in flight outside half-open"},
		{"closed exhausted", func(b *breaker) {
			b.filled = 2
			b.window[0], b.window[1] = true, true
			b.fails = 2
		}, "closed with an exhausted error budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := fresh()
			if v := b.invariantViolation(); v != "" {
				t.Fatalf("fresh breaker already invalid: %s", v)
			}
			tc.mutate(b)
			v := b.invariantViolation()
			if !strings.Contains(v, tc.want) {
				t.Fatalf("violation = %q, want it to mention %q", v, tc.want)
			}
		})
	}
}

func TestErrorStringsAndUnwrap(t *testing.T) {
	inner := errDetached
	se := &SampleError{Dataset: "cosmo", Tenant: "a", Index: 3, Err: inner}
	if !strings.Contains(se.Error(), "sample 3 of cosmo") || se.Unwrap() != inner {
		t.Fatalf("SampleError malformed: %q", se.Error())
	}
	be := &BreakerError{Tenant: "a", Index: 5, Retry: 0.25}
	if !strings.Contains(be.Error(), "open breaker") || !strings.Contains(be.Error(), "0.25s") {
		t.Fatalf("BreakerError malformed: %q", be.Error())
	}
	pe := &PoisonError{Dataset: "cosmo", Tenant: "b", Index: 7, Tenants: 2}
	if !strings.Contains(pe.Error(), "poisoned (failed 2 tenants)") {
		t.Fatalf("PoisonError malformed: %q", pe.Error())
	}
	tn := &Tenant{name: "c"}
	if tn.Name() != "c" {
		t.Fatalf("Tenant.Name() = %q", tn.Name())
	}
}
