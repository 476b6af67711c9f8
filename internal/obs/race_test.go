package obs_test

import (
	"sync"
	"testing"

	"scipp/internal/obs"
	"scipp/internal/trace"
)

// TestRegistryConcurrent hammers one registry from many goroutines — lookups,
// instrument updates, spans, and snapshots all interleaved — the way prefetch
// workers share a registry in the pipeline. Run under -race (the obs package
// is in the repo's race gate); the final totals must also be exact.
func TestRegistryConcurrent(t *testing.T) {
	const (
		workers = 8
		iters   = 500
	)
	r := obs.NewRegistry()
	clock := &trace.VirtualClock{}
	tr := obs.NewTracer(r, clock)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers hold handles, half re-look names up: both
			// paths must be race-free.
			c := r.Counter("shared.count")
			h := r.Histogram("shared.lat", obs.DurationBuckets())
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					c.Add(1)
					h.Observe(0.001)
				} else {
					r.Counter("shared.count").Add(1)
					r.Histogram("shared.lat", obs.DurationBuckets()).Observe(0.001)
				}
				r.Gauge("shared.depth").Set(float64(i))
				sp := tr.Start("shared.stage")
				sp.End()
				if i%64 == 0 {
					_ = r.Snapshot() // snapshots race against writers
				}
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	want := int64(workers * iters)
	if got := s.Counter("shared.count"); got != want {
		t.Fatalf("shared.count = %d, want %d", got, want)
	}
	hv, ok := s.Histogram("shared.lat")
	if !ok || hv.Count != want {
		t.Fatalf("shared.lat count = %d, want %d", hv.Count, want)
	}
	if got := s.Counter("shared.stage.spans"); got != want {
		t.Fatalf("shared.stage.spans = %d, want %d", got, want)
	}
}
