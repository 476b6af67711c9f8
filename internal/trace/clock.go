// Clock abstraction: everything in the repository that timestamps real
// work does so through a Clock, so library code never reads the wall clock
// directly (the determinism analyzer enforces this). Simulated paths use
// virtual clocks; the real-pipeline profiling paths use a WallClock, which
// is the single sanctioned wall-time source.
package trace

import (
	"sync"
	"time"
)

// Clock supplies a Timeline's notion of "now", in seconds from an arbitrary
// epoch. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time in seconds.
	Now() float64
}

// WallClock reads real elapsed seconds since its anchor. NewWallClock
// anchors one at construction; an owner that needs a fresh zero per run
// (the loader's epoch state) holds one and re-anchors it with Reanchor,
// instead of boxing a new clock into Clock each run. Reanchor must not race
// a read.
type WallClock struct {
	t0 time.Time
}

// NewWallClock returns a Clock measuring real elapsed seconds since the
// call. WallClock's methods are the one place library code may touch the
// wall clock: profiling a real pipeline run (cmd/profile, benchmark/,
// pipeline.Config.Trace) is inherently a wall-time measurement.
func NewWallClock() Clock {
	w := new(WallClock)
	w.Reanchor()
	return w
}

// Reanchor restarts w's count at zero.
func (w *WallClock) Reanchor() {
	//lint:ignore determinism the sanctioned wall-time source for real-pipeline profiling
	w.t0 = time.Now()
}

// Now implements Clock.
func (w *WallClock) Now() float64 {
	//lint:ignore determinism the sanctioned wall-time source for real-pipeline profiling
	return time.Since(w.t0).Seconds()
}

// Sleeper is implemented by clocks through which time can be made to pass.
// Code that must wait (retry backoff in the loader's resilience policy) does
// so through the clock it was handed rather than time.Sleep, so simulated
// runs wait in virtual time and tests never block on the wall clock.
type Sleeper interface {
	// Sleep passes d seconds of the clock's time.
	Sleep(d float64)
}

// Sleep implements Sleeper by really sleeping: wall-clock runs pay their
// backoff delays in wall time.
func (w *WallClock) Sleep(d float64) {
	if d <= 0 {
		return
	}
	//lint:ignore determinism the sanctioned wall-time source for real-pipeline profiling
	time.Sleep(time.Duration(d * float64(time.Second)))
}

// Alarm is implemented by clocks that can signal the arrival of a point in
// time. The distributed communicator's collective deadlines run on it, so
// failure detection works identically on wall clocks (real timers) and
// virtual clocks (waiters fired by Advance).
type Alarm interface {
	// After returns a channel that is closed once the clock reaches time t
	// (seconds on the clock's own epoch), plus a cancel function releasing
	// the waiter early. If t has already passed, the channel is returned
	// closed. Cancel is idempotent and safe after firing.
	After(t float64) (<-chan struct{}, func())
}

// After implements Alarm with a real timer.
func (w *WallClock) After(t float64) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	d := t - w.Now()
	if d <= 0 {
		close(ch)
		return ch, func() {}
	}
	var once sync.Once
	fire := func() { once.Do(func() { close(ch) }) }
	//lint:ignore determinism the sanctioned wall-time source for real-pipeline profiling
	timer := time.AfterFunc(time.Duration(d*float64(time.Second)), fire)
	return ch, func() { timer.Stop() }
}

// VirtualClock is a manually advanced Clock for simulations and tests: time
// moves only when Advance is called, so traces are reproducible bit-for-bit.
type VirtualClock struct {
	mu      sync.Mutex
	t       float64
	waiters []*virtualWaiter
}

type virtualWaiter struct {
	at   float64
	ch   chan struct{}
	done bool
}

// Now implements Clock.
func (c *VirtualClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d seconds; negative d is ignored.
// Alarm waiters whose deadline is reached fire before Advance returns.
func (c *VirtualClock) Advance(d float64) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.t += d
	c.fireLocked()
	c.mu.Unlock()
}

// Sleep implements Sleeper by advancing the clock: virtual waits are free.
func (c *VirtualClock) Sleep(d float64) { c.Advance(d) }

// Set jumps the clock to t seconds if that is forward motion.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (c *VirtualClock) Set(t float64) {
	c.mu.Lock()
	if t > c.t {
		c.t = t
		c.fireLocked()
	}
	c.mu.Unlock()
}

// After implements Alarm: the channel closes when Advance or Set carries the
// clock past t. Virtual deadlines therefore fire deterministically, exactly
// when simulated time is made to pass.
func (c *VirtualClock) After(t float64) (<-chan struct{}, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &virtualWaiter{at: t, ch: make(chan struct{})}
	if t <= c.t {
		w.done = true
		close(w.ch)
		return w.ch, func() {}
	}
	c.waiters = append(c.waiters, w)
	cancel := func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !w.done {
			w.done = true // leave the channel open: canceled, not fired
			c.removeLocked(w)
		}
	}
	return w.ch, cancel
}

// fireLocked closes every waiter whose deadline the clock has reached.
func (c *VirtualClock) fireLocked() {
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.done && w.at <= c.t {
			w.done = true
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	c.waiters = kept
}

func (c *VirtualClock) removeLocked(w *virtualWaiter) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}
