package obs

import "scipp/internal/trace"

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Clock returns the tracer's clock, or nil on a nil receiver.
func (t *Tracer) Clock() trace.Clock {
	if t == nil {
		return nil
	}
	return t.clock
}
