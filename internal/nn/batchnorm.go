package nn

//lint:file-ignore deadcode queued for deletion with its tests (ROADMAP item 9)

import (
	"fmt"
	"math"

	"scipp/internal/tensor"
)

// BatchNorm2D normalizes [N, C, H, W] activations per channel over the
// batch — standard in the DeepLabv3+ family DeepCAM builds on. Training
// mode uses batch statistics and maintains running estimates; evaluation
// mode applies the running estimates.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate (PyTorch convention)
	Train    bool

	Gamma, Beta             *Param
	RunningMean, RunningVar []float32

	// cached for backward
	xhat   []float32
	invStd []float32
	inSh   tensor.Shape
}

// NewBatchNorm2D builds a batch-norm layer for c channels. It panics if
// c <= 0 (programmer invariant: layer wiring is static).
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	if c <= 0 {
		panic(fmt.Sprintf("nn: bad BatchNorm2D channels %d", c))
	}
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5, Momentum: 0.1, Train: true,
		Gamma:       newParam(name+".g", c),
		Beta:        newParam(name+".b", c),
		RunningMean: make([]float32, c),
		RunningVar:  make([]float32, c),
	}
	for i := 0; i < c; i++ {
		bn.Gamma.W[i] = 1
		bn.RunningVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return bn.Gamma.Name[:len(bn.Gamma.Name)-2] }

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward implements Layer. It panics unless x is FP32 [N, C, H, W] with
// the layer's channel count (programmer invariant: model wiring is static).
func (bn *BatchNorm2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkF32(x, 4, "BatchNorm2D")
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D expects %d channels, got %d", bn.C, c))
	}
	out := tensor.New(tensor.F32, x.Shape...)
	bn.inSh = x.Shape.Clone()
	plane := h * w
	m := n * plane

	if cap(bn.xhat) < len(x.F32s) {
		bn.xhat = make([]float32, len(x.F32s))
	}
	bn.xhat = bn.xhat[:len(x.F32s)]
	if cap(bn.invStd) < c {
		bn.invStd = make([]float32, c)
	}
	bn.invStd = bn.invStd[:c]

	parallelFor(c, func(ci int) {
		var mean, variance float64
		if bn.Train {
			var sum, sumSq float64
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for p := 0; p < plane; p++ {
					v := float64(x.F32s[base+p])
					sum += v
					sumSq += v * v
				}
			}
			mean = sum / float64(m)
			variance = sumSq/float64(m) - mean*mean
			if variance < 0 {
				variance = 0
			}
			// Update running stats (unbiased variance, PyTorch-style).
			unbiased := variance
			if m > 1 {
				unbiased = variance * float64(m) / float64(m-1)
			}
			mom := float32(bn.Momentum)
			bn.RunningMean[ci] = (1-mom)*bn.RunningMean[ci] + mom*float32(mean)
			bn.RunningVar[ci] = (1-mom)*bn.RunningVar[ci] + mom*float32(unbiased)
		} else {
			mean = float64(bn.RunningMean[ci])
			variance = float64(bn.RunningVar[ci])
		}
		inv := float32(1 / math.Sqrt(variance+bn.Eps))
		bn.invStd[ci] = inv
		g, b := bn.Gamma.W[ci], bn.Beta.W[ci]
		mf := float32(mean)
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for p := 0; p < plane; p++ {
				xh := (x.F32s[base+p] - mf) * inv
				bn.xhat[base+p] = xh
				out.F32s[base+p] = g*xh + b
			}
		}
	})
	return out
}

// Backward implements Layer. It panics unless grad matches the forward
// input shape (programmer invariant).
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := bn.inSh[0], bn.inSh[1], bn.inSh[2], bn.inSh[3]
	if !grad.Shape.Equal(bn.inSh) {
		panic(fmt.Sprintf("nn: BatchNorm2D backward grad shape %v", grad.Shape))
	}
	dx := tensor.New(tensor.F32, bn.inSh...)
	plane := h * w
	m := float32(n * plane)

	parallelFor(c, func(ci int) {
		var sumDy, sumDyXhat float64
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for p := 0; p < plane; p++ {
				dy := float64(grad.F32s[base+p])
				sumDy += dy
				sumDyXhat += dy * float64(bn.xhat[base+p])
			}
		}
		bn.Beta.G[ci] += float32(sumDy)
		bn.Gamma.G[ci] += float32(sumDyXhat)
		if !bn.Train {
			// Eval mode: stats are constants; dx = dy * gamma * invStd.
			gi := bn.Gamma.W[ci] * bn.invStd[ci]
			for ni := 0; ni < n; ni++ {
				base := (ni*c + ci) * plane
				for p := 0; p < plane; p++ {
					dx.F32s[base+p] = grad.F32s[base+p] * gi
				}
			}
			return
		}
		gInv := bn.Gamma.W[ci] * bn.invStd[ci] / m
		sDy, sDyX := float32(sumDy), float32(sumDyXhat)
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * plane
			for p := 0; p < plane; p++ {
				dy := grad.F32s[base+p]
				dx.F32s[base+p] = gInv * (m*dy - sDy - bn.xhat[base+p]*sDyX)
			}
		}
	})
	return dx
}
