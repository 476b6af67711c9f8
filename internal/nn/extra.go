package nn

import (
	"fmt"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// DilatedConv2D is a 2D convolution with dilation (atrous convolution) —
// the characteristic operator of DeepLabv3+ ("encoder-decoder with atrous
// separable convolution"), which DeepCAM's model is built on. A dilation of
// 1 is a plain convolution; dilation d samples the kernel taps d pixels
// apart, enlarging the receptive field at constant cost.
type DilatedConv2D struct {
	InC, OutC, K, Stride, Pad, Dilation int
	Weight, Bias                        *Param

	x *tensor.Tensor
}

// NewDilatedConv2D builds a KxK convolution with the given dilation. It
// panics on a non-positive config (programmer invariant: layer wiring is
// static).
func NewDilatedConv2D(name string, inC, outC, k, stride, pad, dilation int) *DilatedConv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 || dilation <= 0 {
		panic(fmt.Sprintf("nn: bad DilatedConv2D config %d %d %d %d %d %d", inC, outC, k, stride, pad, dilation))
	}
	return &DilatedConv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Dilation: dilation,
		Weight: newParam(name+".w", outC, inC, k, k),
		Bias:   newParam(name+".b", outC),
	}
}

// Name implements Layer.
func (c *DilatedConv2D) Name() string { return c.Weight.Name[:len(c.Weight.Name)-2] }

// Params implements Layer.
func (c *DilatedConv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

func (c *DilatedConv2D) outDims(h, w int) (int, int) {
	ek := (c.K-1)*c.Dilation + 1 // effective kernel extent
	ho := (h+2*c.Pad-ek)/c.Stride + 1
	wo := (w+2*c.Pad-ek)/c.Stride + 1
	return ho, wo
}

// Forward implements Layer. It panics unless x is FP32 [N, InC, H, W]
// large enough for a non-empty output (programmer invariant).
func (c *DilatedConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkF32(x, 4, "DilatedConv2D")
	n, cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if cin != c.InC {
		panic(fmt.Sprintf("nn: DilatedConv2D expects %d input channels, got %d", c.InC, cin))
	}
	ho, wo := c.outDims(h, w)
	if ho <= 0 || wo <= 0 {
		panic(fmt.Sprintf("nn: DilatedConv2D output %dx%d is empty", ho, wo))
	}
	out := tensor.New(tensor.F32, n, c.OutC, ho, wo)
	c.x = x
	wgt, bias := c.Weight.W, c.Bias.W
	d := c.Dilation
	parallelFor(n*c.OutC, func(job int) {
		ni, co := job/c.OutC, job%c.OutC
		xBase := ni * cin * h * w
		oBase := (ni*c.OutC + co) * ho * wo
		wBase := co * cin * c.K * c.K
		for oy := 0; oy < ho; oy++ {
			iy0 := oy*c.Stride - c.Pad
			for ox := 0; ox < wo; ox++ {
				ix0 := ox*c.Stride - c.Pad
				acc := bias[co]
				for ci := 0; ci < cin; ci++ {
					xC := xBase + ci*h*w
					wC := wBase + ci*c.K*c.K
					for ky := 0; ky < c.K; ky++ {
						iy := iy0 + ky*d
						if iy < 0 || iy >= h {
							continue
						}
						row := xC + iy*w
						wRow := wC + ky*c.K
						for kx := 0; kx < c.K; kx++ {
							ix := ix0 + kx*d
							if ix < 0 || ix >= w {
								continue
							}
							acc += x.F32s[row+ix] * wgt[wRow+kx]
						}
					}
				}
				out.F32s[oBase+oy*wo+ox] = acc
			}
		}
	})
	return out
}

// Backward implements Layer. It panics unless grad matches the forward
// output shape (programmer invariant).
func (c *DilatedConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.x
	n, cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ho, wo := c.outDims(h, w)
	if !grad.Shape.Equal(tensor.Shape{n, c.OutC, ho, wo}) {
		panic(fmt.Sprintf("nn: DilatedConv2D backward grad shape %v", grad.Shape))
	}
	dx := tensor.New(tensor.F32, n, cin, h, w)
	d := c.Dilation

	parallelFor(c.OutC, func(co int) {
		wBase := co * cin * c.K * c.K
		var db float32
		for ni := 0; ni < n; ni++ {
			gBase := (ni*c.OutC + co) * ho * wo
			xBase := ni * cin * h * w
			for oy := 0; oy < ho; oy++ {
				iy0 := oy*c.Stride - c.Pad
				for ox := 0; ox < wo; ox++ {
					g := grad.F32s[gBase+oy*wo+ox]
					if g == 0 {
						continue
					}
					db += g
					ix0 := ox*c.Stride - c.Pad
					for ci := 0; ci < cin; ci++ {
						xC := xBase + ci*h*w
						wC := wBase + ci*c.K*c.K
						for ky := 0; ky < c.K; ky++ {
							iy := iy0 + ky*d
							if iy < 0 || iy >= h {
								continue
							}
							row := xC + iy*w
							wRow := wC + ky*c.K
							for kx := 0; kx < c.K; kx++ {
								ix := ix0 + kx*d
								if ix < 0 || ix >= w {
									continue
								}
								c.Weight.G[wRow+kx] += g * x.F32s[row+ix]
							}
						}
					}
				}
			}
		}
		c.Bias.G[co] += db
	})

	wgt := c.Weight.W
	parallelFor(n*cin, func(job int) {
		ni, ci := job/cin, job%cin
		dxC := (ni*cin + ci) * h * w
		for co := 0; co < c.OutC; co++ {
			gBase := (ni*c.OutC + co) * ho * wo
			wC := (co*cin + ci) * c.K * c.K
			for oy := 0; oy < ho; oy++ {
				iy0 := oy*c.Stride - c.Pad
				for ox := 0; ox < wo; ox++ {
					g := grad.F32s[gBase+oy*wo+ox]
					if g == 0 {
						continue
					}
					ix0 := ox*c.Stride - c.Pad
					for ky := 0; ky < c.K; ky++ {
						iy := iy0 + ky*d
						if iy < 0 || iy >= h {
							continue
						}
						row := dxC + iy*w
						wRow := wC + ky*c.K
						for kx := 0; kx < c.K; kx++ {
							ix := ix0 + kx*d
							if ix < 0 || ix >= w {
								continue
							}
							dx.F32s[row+ix] += g * wgt[wRow+kx]
						}
					}
				}
			}
		}
	})
	return dx
}

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
