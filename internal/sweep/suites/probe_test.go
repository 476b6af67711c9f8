package suites

import "testing"

// TestProbeSteps pins the probe's edges: perfectly predictable targets
// converge fast, zero targets cost nothing, and a target the features
// cannot explain still terminates (the 95%-of-achievable definition).
func TestProbeSteps(t *testing.T) {
	lin := make([][]float64, 16)
	ylin := make([][]float64, 16)
	yzero := make([][]float64, 16)
	yalt := make([][]float64, 16)
	for i := range lin {
		lin[i] = []float64{float64(i)}
		ylin[i] = []float64{3 * float64(i)}
		yzero[i] = []float64{0}
		yalt[i] = []float64{float64(1 - 2*(i%2))} // +-1, orthogonal to the ramp's span with bias
	}
	if s := probeSteps(lin, ylin); s <= 0 || s > probeCap/2 {
		t.Errorf("linear target took %d steps", s)
	}
	if s := probeSteps(lin, yzero); s != 0 {
		t.Errorf("zero target took %d steps, want 0", s)
	}
	if s := probeSteps(lin, yalt); s <= 0 || s > probeCap {
		t.Errorf("unexplainable target took %d steps", s)
	}
}
