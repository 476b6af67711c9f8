// Package nn is a from-scratch neural-network substrate sufficient to train
// the paper's two model families and reproduce the convergence experiments
// (Figs 6, 7): batched FP32 tensors, 2D/3D convolutions with full
// backpropagation, pooling, dense layers, softmax-cross-entropy and MSE
// losses, and SGD/Adam optimizers. Computation is FP32 throughout — the
// mixed-precision effect under study enters through the FP16 *samples* the
// decoder plugins emit, exactly as in the paper's autocast pipelines.
package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// Param is one learnable parameter tensor with its gradient accumulator.
type Param struct {
	Name  string
	Shape tensor.Shape
	W     []float32 // weights
	G     []float32 // gradient, accumulated across a batch
}

func newParam(name string, shape ...int) *Param {
	n := tensor.Shape(shape).Elems()
	return &Param{
		Name:  name,
		Shape: tensor.Shape(shape).Clone(),
		W:     make([]float32, n),
		G:     make([]float32, n),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is one differentiable module. Forward must be called before
// Backward; layers cache what they need in between (single-threaded use per
// layer instance).
type Layer interface {
	// Name identifies the layer for diagnostics.
	Name() string
	// Forward computes the layer output for a batched input.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all parameter gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of learnable scalars.
//
//lint:ignore deadcode the nn and models tests size models with it
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.W)
	}
	return n
}

// InitHe applies He-normal initialization to every conv/dense weight and
// zeros every bias, deterministically from seed.
func (s *Sequential) InitHe(seed uint64) {
	rng := xrand.New(seed)
	for _, p := range s.Params() {
		r := rng.Split()
		if len(p.Shape) <= 1 {
			// Rank-<=1 parameters keep their constructed values: biases are
			// born zero, batch-norm gammas are born one. Zeroing here would
			// silently kill normalization layers.
			continue
		}
		fanIn := 1
		for _, d := range p.Shape[1:] {
			fanIn *= d
		}
		std := float32(1.0)
		if fanIn > 0 {
			std = float32(math.Sqrt(2.0 / float64(fanIn)))
		}
		for i := range p.W {
			p.W[i] = std * float32(r.NormFloat64())
		}
	}
}

// parallelFor runs f(i) for i in [0, n) across GOMAXPROCS workers.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// checkF32 panics unless t is a rank-matching FP32 tensor.
func checkF32(t *tensor.Tensor, rank int, who string) {
	if t.DT != tensor.F32 {
		panic(fmt.Sprintf("nn: %s requires FP32 input, got %v", who, t.DT))
	}
	if len(t.Shape) != rank {
		panic(fmt.Sprintf("nn: %s requires rank-%d input, got %v", who, rank, t.Shape))
	}
}
