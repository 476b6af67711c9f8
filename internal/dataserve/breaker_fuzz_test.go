package dataserve

import "testing"

// FuzzBreakerState drives one tenant's circuit breaker through arbitrary
// event sequences — admissions, outcome records (probe and straggler),
// request drops, clock advances — and asserts after every single event
// that the breaker's internal invariants hold: the failure count always
// matches the window contents, probes only exist half-open, the backoff
// stays inside [Backoff, 64*Backoff], and a closed breaker never sits on
// an exhausted error budget. The first two bytes pick the configuration so
// the corpus explores threshold/window interactions (threshold above the
// window size must simply never trip).
func FuzzBreakerState(f *testing.F) {
	f.Add([]byte{})
	// Trip, back off, probe-fail, probe-succeed.
	f.Add([]byte{2, 4, 0, 2, 0, 2, 3, 0, 2, 3, 0, 1})
	// Admissions dropped mid-probe: the abort path must release the probe.
	f.Add([]byte{1, 2, 0, 2, 3, 0, 4, 0, 1, 0, 2})
	// Window wraparound with mixed outcomes and stray stragglers.
	f.Add([]byte{3, 3, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 1, 2, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := BreakerConfig{Threshold: 1, Window: 4}
		if len(data) >= 2 {
			cfg.Threshold = int(data[0]%8) + 1
			cfg.Window = int(data[1] % 16) // 0 takes the default
			data = data[2:]
		}
		tn := &Tenant{name: "fuzz", brk: newBreaker(cfg)}
		now := 0.0
		// pending holds the probe flags of admitted-but-unfinished requests
		// in FIFO order, mirroring the tenant's pending queue.
		var pending []bool
		for i, op := range data {
			switch op % 5 {
			case 0: // admit one request
				if allow, probe := tn.admitBreakerLocked(now); allow {
					pending = append(pending, probe)
				}
			case 1, 2: // oldest pending request finishes (1 ok, 2 failed)
				probe := false
				if len(pending) > 0 {
					probe, pending = pending[0], pending[1:]
				}
				tn.recordBreakerLocked(probe, op%5 == 2, now)
			case 3: // clock advances, possibly past the open interval
				now += float64(op) * 0.01
			case 4: // oldest pending request dropped (shed / iterator close)
				if len(pending) > 0 {
					if pending[0] {
						tn.breakerAbortProbeLocked()
					}
					pending = pending[1:]
				}
			}
			if msg := tn.brk.invariantViolation(); msg != "" {
				t.Fatalf("event %d (op %d): breaker inconsistent: %s", i, op, msg)
			}
		}
		// Liveness: however the sequence ended, a tripped breaker must admit
		// again once the (capped) backoff fully elapses.
		if tn.brk.state != breakerClosed {
			tn.breakerAbortProbeLocked()
			now += tn.brk.cfg.maxBackoff() + 1
			if allow, _ := tn.admitBreakerLocked(now); !allow {
				t.Fatalf("breaker still rejecting %g s past the backoff cap", tn.brk.cfg.maxBackoff()+1)
			}
			if msg := tn.brk.invariantViolation(); msg != "" {
				t.Fatalf("final probe admission left breaker inconsistent: %s", msg)
			}
		}
	})
}
