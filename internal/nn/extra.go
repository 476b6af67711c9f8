package nn

import (
	"fmt"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// Dropout randomly zeroes activations during training — the "random weight
// drop-offs" the paper lists among CosmoFlow's run-to-run variability
// sources (§VIII-A). Deterministic given the seed sequence; a Dropout with
// Train=false is the identity.
type Dropout struct {
	// P is the drop probability in [0, 1).
	P float64
	// Train enables dropping; evaluation mode passes through unscaled.
	Train bool

	rng  *xrand.RNG
	mask []float32
}

// NewDropout builds a dropout layer seeded deterministically. It panics if
// p is outside [0, 1) (programmer invariant).
//
//lint:ignore deadcode checkpoint format v2 carries Dropout RNG streams, so the layer stays while the format does
func NewDropout(p float64, seed uint64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %g out of [0,1)", p))
	}
	return &Dropout{P: p, Train: true, rng: xrand.New(seed)}
}

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// RNGState exposes the layer's live random stream for checkpointing: a
// restored run must continue the mask sequence exactly where the original
// left off to stay bit-identical.
func (d *Dropout) RNGState() [4]uint64 { return d.rng.State() }

// SetRNGState restores a stream captured by RNGState.
func (d *Dropout) SetRNGState(s [4]uint64) { d.rng.SetState(s) }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Forward implements Layer. Uses inverted dropout: kept activations are
// scaled by 1/(1-p) so evaluation needs no rescaling.
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !d.Train || d.P == 0 {
		d.mask = nil
		return x
	}
	out := tensor.New(tensor.F32, x.Shape...)
	if cap(d.mask) < len(x.F32s) {
		d.mask = make([]float32, len(x.F32s))
	}
	d.mask = d.mask[:len(x.F32s)]
	keep := float32(1 / (1 - d.P))
	for i, v := range x.F32s {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = keep
			out.F32s[i] = v * keep
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	dx := tensor.New(tensor.F32, grad.Shape...)
	for i, g := range grad.F32s {
		dx.F32s[i] = g * d.mask[i]
	}
	return dx
}

// LeakyReLU is max(x, alpha*x) — mitigates the dying-ReLU collapse that
// fully kills gradient flow in small networks (observed in this codebase's
// own training history; see models.MiniCosmoFlow's head note).
type LeakyReLU struct {
	Alpha float32
	x     []float32
}

// NewLeakyReLU builds the activation with the given negative slope. It
// panics if alpha is outside [0, 1) (programmer invariant).
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func NewLeakyReLU(alpha float32) *LeakyReLU {
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("nn: LeakyReLU alpha %g out of [0,1)", alpha))
	}
	return &LeakyReLU{Alpha: alpha}
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return "leakyrelu" }

// Params implements Layer.
func (l *LeakyReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(tensor.F32, x.Shape...)
	if cap(l.x) < len(x.F32s) {
		l.x = make([]float32, len(x.F32s))
	}
	l.x = l.x[:len(x.F32s)]
	copy(l.x, x.F32s)
	for i, v := range x.F32s {
		if v > 0 {
			out.F32s[i] = v
		} else {
			out.F32s[i] = l.Alpha * v
		}
	}
	return out
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(tensor.F32, grad.Shape...)
	for i, g := range grad.F32s {
		if l.x[i] > 0 {
			dx.F32s[i] = g
		} else {
			dx.F32s[i] = l.Alpha * g
		}
	}
	return dx
}
