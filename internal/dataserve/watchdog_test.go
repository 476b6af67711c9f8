package dataserve

import (
	"sync/atomic"
	"testing"
	"time"

	"scipp/internal/trace"
)

// gatedClock is a virtual clock whose next reading, once armed, is handed
// to the test and held until release, so the test can move the clock
// between that reading and whatever its reader does next.
type gatedClock struct {
	*trace.VirtualClock
	armed   atomic.Bool
	reads   chan float64
	release chan struct{}
}

func (c *gatedClock) Now() float64 {
	t := c.VirtualClock.Now()
	if c.armed.CompareAndSwap(true, false) {
		c.reads <- t
		<-c.release
	}
	return t
}

// TestWatchdogTickSurvivesClockJump jumps the clock while the watchdog
// scans. The scan reads 5 s and finds the undrained epoch 5 s stale, under
// StallSeconds 10; the clock reaches 10 s before the scan ends. The next
// tick counts from the scan's reading, so it is already due and the
// watchdog detaches the tenant with no further clock motion. A tick armed
// from a reading taken after the scan would wait for 15 s, which this
// clock never reaches.
func TestWatchdogTickSurvivesClockJump(t *testing.T) {
	clock := &gatedClock{
		VirtualClock: &trace.VirtualClock{},
		reads:        make(chan float64),
		release:      make(chan struct{}),
	}
	s := New(Config{Workers: 2, Clock: clock, StallSeconds: 10})
	defer s.Close()
	// The inert format fails every decode, so each request comes back as
	// an error outcome: undrained all the same.
	tn := idleTenant(t, s, TenantConfig{Name: "t", Batch: 4, Inflight: 4})
	it := tn.Epoch(0) // never drained
	defer it.Close()

	// Once every request has come back, the watchdog is the clock's only
	// reader.
	deadline := time.Now().Add(5 * time.Second)
	for len(it.completions) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 outcomes came back", len(it.completions))
		}
		time.Sleep(time.Millisecond)
	}
	clock.armed.Store(true)
	clock.Advance(5) // the first tick
	if got := <-clock.reads; got != 5 {
		t.Fatalf("watchdog scan read %v, want 5", got)
	}
	clock.Advance(5) // the jump, while that scan is under way
	close(clock.release)

	deadline = time.Now().Add(5 * time.Second)
	for tn.Stats().SlowDetached == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never scanned after the jump: the tick it made due was lost")
		}
		time.Sleep(time.Millisecond)
	}
}
