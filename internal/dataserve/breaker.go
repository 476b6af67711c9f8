package dataserve

// Circuit breaker: the per-tenant bulkhead that keeps a failing tenant
// from consuming shared decode capacity. Outcomes of the tenant's own
// requests feed a sliding error window; when failures cross the threshold
// the breaker trips open and the tenant's enqueues fast-fail with a typed
// *BreakerError written straight into its iterator's reorder ring — no
// queue slot, no decode worker, no shared-cache pressure. After a backoff
// on the service clock the breaker admits exactly one half-open probe; the
// probe's outcome either closes the breaker (window reset, backoff reset)
// or reopens it with the backoff doubled up to a cap.
//
// All breaker state lives on the Tenant and is guarded by the service
// mutex, like the tenant's pend queue: admission decisions happen at
// enqueue, which already holds svc.mu for queue accounting, and outcome
// recording in the workers, which take svc.mu for it only when the
// breaker is armed. The
// scipplint breakerstate analyzer enforces the discipline mechanically:
// every assignment to the breaker's state field must sit in a *Locked
// method that also records an obs instrument.

// BreakerConfig arms a tenant's circuit breaker. The zero value (Threshold
// 0) disables it: requests are never fast-failed.
type BreakerConfig struct {
	// Threshold is the failure count within Window that trips the breaker
	// open. 0 disables the breaker.
	Threshold int
	// Window is the sliding outcome window size, in requests. Default 16.
	Window int
	// Backoff is the open interval before the first half-open probe, in
	// seconds on the service clock. Default 0.05. Repeated probe failures
	// double it up to 64*Backoff.
	Backoff float64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Backoff <= 0 {
		c.Backoff = 0.05
	}
	return c
}

// maxBackoff caps the open interval's doubling on repeated probe failures.
func (c BreakerConfig) maxBackoff() float64 { return 64 * c.Backoff }

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// breaker is one tenant's circuit-breaker state. Guarded by svc.mu.
type breaker struct {
	cfg     BreakerConfig
	state   breakerState
	window  []bool  // outcome ring, true = failure
	pos     int     // next ring slot
	filled  int     // outcomes recorded, saturating at len(window)
	fails   int     // failures currently in the ring
	until   float64 // clock time the open interval expires
	backoff float64 // current open interval, doubled per failed probe
	probing bool    // half-open probe currently in flight
}

func newBreaker(cfg BreakerConfig) *breaker {
	cfg = cfg.withDefaults()
	return &breaker{cfg: cfg, window: make([]bool, cfg.Window), backoff: cfg.Backoff}
}

// admitBreakerLocked decides one request's admission against the tenant's
// breaker: (true, false) for a plain admit, (true, true) for the single
// half-open probe, (false, _) for a fast-fail. Probes and rejections are
// counted here. Caller holds svc.mu.
func (t *Tenant) admitBreakerLocked(now float64) (allow, probe bool) {
	b := t.brk
	if b == nil {
		return true, false
	}
	if b.state == breakerOpen && now >= b.until {
		t.breakerHalfOpenLocked()
	}
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerHalfOpen:
		if !b.probing {
			b.probing = true
			t.to.breakerProbes.Inc()
			return true, true
		}
	}
	t.to.breakerRejects.Inc()
	return false, false
}

// recordBreakerLocked feeds one finished request's outcome to the breaker.
// Closed: the outcome enters the sliding window and may trip the breaker.
// Half-open: only the probe's outcome decides (stragglers dispatched
// before the trip are ignored); open: everything is a straggler. Caller
// holds svc.mu.
func (t *Tenant) recordBreakerLocked(probe, failure bool, now float64) {
	b := t.brk
	if b == nil {
		return
	}
	switch b.state {
	case breakerClosed:
		if b.filled == len(b.window) {
			if b.window[b.pos] {
				b.fails--
			}
		} else {
			b.filled++
		}
		b.window[b.pos] = failure
		if failure {
			b.fails++
		}
		b.pos = (b.pos + 1) % len(b.window)
		if failure && b.fails >= b.cfg.Threshold {
			t.breakerTripLocked(now)
		}
	case breakerHalfOpen:
		if !probe {
			return
		}
		if failure {
			t.breakerReopenLocked(now)
		} else {
			t.breakerCloseLocked()
		}
	}
}

// breakerAbortProbeLocked releases a half-open probe whose request was
// dropped (iterator closed, request shed) without deciding anything: the
// next admission becomes the probe instead. Caller holds svc.mu.
func (t *Tenant) breakerAbortProbeLocked() {
	if b := t.brk; b != nil && b.state == breakerHalfOpen {
		b.probing = false
	}
}

// breakerTripLocked is the closed -> open transition: the error budget is
// exhausted and the tenant is cut off for the current backoff interval.
// Caller holds svc.mu.
func (t *Tenant) breakerTripLocked(now float64) {
	b := t.brk
	b.state = breakerOpen
	b.probing = false
	b.until = now + b.backoff
	t.to.breakerTrips.Inc()
	t.to.breakerState.Set(float64(breakerOpen))
}

// breakerReopenLocked is the half-open -> open transition: the probe
// failed, so the open interval doubles (capped) and the tenant stays cut
// off. Counted as a trip. Caller holds svc.mu.
func (t *Tenant) breakerReopenLocked(now float64) {
	b := t.brk
	b.backoff *= 2
	b.backoff = min(b.backoff, b.cfg.maxBackoff())
	b.state = breakerOpen
	b.probing = false
	b.until = now + b.backoff
	t.to.breakerTrips.Inc()
	t.to.breakerState.Set(float64(breakerOpen))
}

// breakerHalfOpenLocked is the open -> half-open transition: the backoff
// elapsed, so the next admission may probe. Caller holds svc.mu.
func (t *Tenant) breakerHalfOpenLocked() {
	b := t.brk
	b.state = breakerHalfOpen
	b.probing = false
	t.to.breakerState.Set(float64(breakerHalfOpen))
}

// breakerCloseLocked is the half-open -> closed transition: the probe
// succeeded, so the window and backoff reset and normal admission
// resumes. Caller holds svc.mu.
func (t *Tenant) breakerCloseLocked() {
	b := t.brk
	b.state = breakerClosed
	b.probing = false
	b.backoff = b.cfg.Backoff
	b.pos, b.filled, b.fails = 0, 0, 0
	for i := range b.window {
		b.window[i] = false
	}
	t.to.breakerState.Set(float64(breakerClosed))
}

// invariantViolation reports the first internal consistency rule the
// breaker violates, or "" — the FuzzBreakerState oracle.
//
//lint:ignore deadcode test oracle: the breaker tests and FuzzBreakerState check every transition against it
func (b *breaker) invariantViolation() string {
	// Bounds first: counting the ring below indexes by filled.
	switch {
	case b.state != breakerClosed && b.state != breakerOpen && b.state != breakerHalfOpen:
		return "state out of range"
	case b.filled < 0 || b.filled > len(b.window):
		return "filled outside window"
	case b.pos < 0 || b.pos >= len(b.window):
		return "ring position outside window"
	}
	fails := 0
	for i := 0; i < b.filled; i++ {
		if b.window[i] {
			fails++
		}
	}
	// The ring's occupied region is [0, filled) only until it wraps; count
	// the whole ring once full.
	if b.filled == len(b.window) {
		fails = 0
		for _, f := range b.window {
			if f {
				fails++
			}
		}
	}
	switch {
	case b.fails != fails:
		return "failure count disagrees with window contents"
	case b.backoff < b.cfg.Backoff || b.backoff > b.cfg.maxBackoff():
		return "backoff outside [Backoff, 64*Backoff]"
	case b.probing && b.state != breakerHalfOpen:
		return "probe in flight outside half-open"
	case b.state == breakerClosed && b.fails >= b.cfg.Threshold:
		return "closed with an exhausted error budget"
	}
	return ""
}
