package nn

import (
	"fmt"

	"scipp/internal/tensor"
)

// Dense is a fully connected layer over [N, In] inputs.
type Dense struct {
	In, Out      int
	Weight, Bias *Param

	x *tensor.Tensor
}

// NewDense builds a fully connected layer. It panics on a non-positive
// config (programmer invariant: layer wiring is static).
func NewDense(name string, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: bad Dense config %d %d", in, out))
	}
	return &Dense{
		In: in, Out: out,
		Weight: newParam(name+".w", out, in),
		Bias:   newParam(name+".b", out),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.Weight.Name[:len(d.Weight.Name)-2] }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Forward implements Layer. It panics unless x is FP32 [N, In]
// (programmer invariant: model wiring is static).
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkF32(x, 2, "Dense")
	n := x.Shape[0]
	if x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d features, got %d", d.In, x.Shape[1]))
	}
	d.x = x
	out := tensor.New(tensor.F32, n, d.Out)
	parallelFor(n, func(ni int) {
		xi := x.F32s[ni*d.In : (ni+1)*d.In]
		oi := out.F32s[ni*d.Out : (ni+1)*d.Out]
		for o := 0; o < d.Out; o++ {
			acc := d.Bias.W[o]
			row := d.Weight.W[o*d.In : (o+1)*d.In]
			for i, v := range xi {
				acc += v * row[i]
			}
			oi[o] = acc
		}
	})
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := d.x
	n := x.Shape[0]
	dx := tensor.New(tensor.F32, n, d.In)
	// Parameter grads: parallel over output unit (each owns its weight row).
	parallelFor(d.Out, func(o int) {
		row := d.Weight.G[o*d.In : (o+1)*d.In]
		var db float32
		for ni := 0; ni < n; ni++ {
			g := grad.F32s[ni*d.Out+o]
			if g == 0 {
				continue
			}
			db += g
			xi := x.F32s[ni*d.In : (ni+1)*d.In]
			for i, v := range xi {
				row[i] += g * v
			}
		}
		d.Bias.G[o] += db
	})
	// Input grads: parallel over batch.
	parallelFor(n, func(ni int) {
		gi := grad.F32s[ni*d.Out : (ni+1)*d.Out]
		di := dx.F32s[ni*d.In : (ni+1)*d.In]
		for o, g := range gi {
			if g == 0 {
				continue
			}
			row := d.Weight.W[o*d.In : (o+1)*d.In]
			for i, wv := range row {
				di[i] += g * wv
			}
		}
	})
	return dx
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(tensor.F32, x.Shape...)
	if cap(r.mask) < len(x.F32s) {
		r.mask = make([]bool, len(x.F32s))
	}
	r.mask = r.mask[:len(x.F32s)]
	for i, v := range x.F32s {
		if v > 0 {
			out.F32s[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(tensor.F32, grad.Shape...)
	for i, g := range grad.F32s {
		if r.mask[i] {
			dx.F32s[i] = g
		}
	}
	return dx
}

// Upsample2D is nearest-neighbor x-K upsampling over [N, C, H, W], the
// decoder half of the segmentation model.
type Upsample2D struct {
	K    int
	inSh tensor.Shape
}

// NewUpsample2D returns an xK nearest-neighbor upsampler. It panics if
// k <= 0 (programmer invariant).
func NewUpsample2D(k int) *Upsample2D {
	if k <= 0 {
		panic("nn: bad Upsample2D k")
	}
	return &Upsample2D{K: k}
}

// Name implements Layer.
func (u *Upsample2D) Name() string { return "upsample2d" }

// Params implements Layer.
func (u *Upsample2D) Params() []*Param { return nil }

// Forward implements Layer.
func (u *Upsample2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkF32(x, 4, "Upsample2D")
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	u.inSh = x.Shape.Clone()
	out := tensor.New(tensor.F32, n, c, h*u.K, w*u.K)
	ho, wo := h*u.K, w*u.K
	parallelFor(n*c, func(job int) {
		base := job * h * w
		oBase := job * ho * wo
		for oy := 0; oy < ho; oy++ {
			iy := oy / u.K
			for ox := 0; ox < wo; ox++ {
				out.F32s[oBase+oy*wo+ox] = x.F32s[base+iy*w+ox/u.K]
			}
		}
	})
	return out
}

// Backward implements Layer.
func (u *Upsample2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := u.inSh[0], u.inSh[1], u.inSh[2], u.inSh[3]
	dx := tensor.New(tensor.F32, n, c, h, w)
	ho, wo := h*u.K, w*u.K
	parallelFor(n*c, func(job int) {
		base := job * h * w
		gBase := job * ho * wo
		for oy := 0; oy < ho; oy++ {
			iy := oy / u.K
			for ox := 0; ox < wo; ox++ {
				dx.F32s[base+iy*w+ox/u.K] += grad.F32s[gBase+oy*wo+ox]
			}
		}
	})
	return dx
}

// Flatten reshapes [N, ...] to [N, rest].
type Flatten struct {
	inSh tensor.Shape
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inSh = x.Shape.Clone()
	n := x.Shape[0]
	rest := x.Elems() / n
	return tensor.FromF32(x.F32s, n, rest)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return tensor.FromF32(grad.F32s, f.inSh...)
}
