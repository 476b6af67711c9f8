package nn

import (
	"fmt"

	"scipp/internal/tensor"
)

// Conv is a convolution over [N, Cin, H, W] (2D) or [N, Cin, D, H, W] (3D)
// inputs with a K-tap kernel per spatial axis whose taps lie Dilation
// elements apart. 3D is the CosmoFlow building block ("five layers of 3D
// convolutional layers"); dilation above 1 is atrous convolution, the
// operator DeepLabv3+ (and so DeepCAM's model) is built on, which enlarges
// the receptive field at constant cost. A 2D input runs as a depth-one
// volume under a one-tap depth kernel, so both ranks share one set of loops.
type Conv struct {
	InC, OutC, K, Stride, Pad, Dilation int
	Weight, Bias                        *Param

	rank int            // spatial dimensions: 2 or 3
	x    *tensor.Tensor // cached input
	pl   *convPlan      // cached input's geometry
}

// NewConv2D builds a KxK convolution. It panics on a non-positive config
// (programmer invariant: layer wiring is static).
func NewConv2D(name string, inC, outC, k, stride, pad int) *Conv {
	return newConv(name, 2, inC, outC, k, stride, pad, 1)
}

// NewDilatedConv2D builds a KxK convolution with the given dilation. It
// panics on a non-positive config (programmer invariant: layer wiring is
// static).
func NewDilatedConv2D(name string, inC, outC, k, stride, pad, dilation int) *Conv {
	return newConv(name, 2, inC, outC, k, stride, pad, dilation)
}

// NewConv3D builds a KxKxK convolution. It panics on a non-positive config
// (programmer invariant: layer wiring is static).
func NewConv3D(name string, inC, outC, k, stride, pad int) *Conv {
	return newConv(name, 3, inC, outC, k, stride, pad, 1)
}

// newConv builds a convolution over rank spatial dimensions. It panics on a
// non-positive config (programmer invariant: layer wiring is static).
func newConv(name string, rank, inC, outC, k, stride, pad, dilation int) *Conv {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 || dilation <= 0 {
		panic(fmt.Sprintf("nn: bad Conv%dD config %d %d %d %d %d %d", rank, inC, outC, k, stride, pad, dilation))
	}
	wshape := []int{outC, inC, k, k, k}[:rank+2]
	return &Conv{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Dilation: dilation,
		Weight: newParam(name+".w", wshape...),
		Bias:   newParam(name+".b", outC),
		rank:   rank,
	}
}

// Name implements Layer.
func (c *Conv) Name() string { return c.Weight.Name[:len(c.Weight.Name)-2] }

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// convPlan is the geometry of a pass over one input shape, worked out once
// per Forward and reused by Backward. The depth axis is explicit: a 2D pass
// has depth 1 and one depth tap.
type convPlan struct {
	n, cin, cout int
	vol, kvol    int // input elements and kernel taps per channel
	wo, r        int // output columns; dilation, the input step between taps
	out          tensor.Shape
	// rows[q] lists, for output row q (depth-major), the kernel rows whose
	// taps land inside the input, in (kz, ky) order. cols[ox] is the span
	// of kernel columns that land inside the input for output column ox.
	rows [][]tapRow
	cols []tapCol
}

// tapRow pairs an input row's offset within its channel with the offset,
// within its filter, of the kernel row that meets it.
type tapRow struct{ x, w int }

// tapCol is the span [lo, hi) of in-bounds kernel columns, and x, the input
// column that tap lo meets.
type tapCol struct{ x, lo, hi int }

// plan works out the geometry of a pass over an input of shape sh. It
// panics if the output would be empty (programmer invariant).
func (c *Conv) plan(sh tensor.Shape) *convPlan {
	d, kd, pd := 1, 1, 0
	if c.rank == 3 {
		d, kd, pd = sh[2], c.K, c.Pad
	}
	h, w := sh[c.rank], sh[c.rank+1]
	k, s, p, r := c.K, c.Stride, c.Pad, c.Dilation
	extent := func(in, taps, pad int) int {
		span := in + 2*pad - (taps-1)*r - 1 // the kernel's last start
		if span < 0 {
			return 0 // the kernel reaches past the padded input
		}
		return span/s + 1
	}
	do, ho, wo := extent(d, kd, pd), extent(h, k, p), extent(w, k, p)
	if do <= 0 || ho <= 0 || wo <= 0 {
		panic(fmt.Sprintf("nn: Conv output %dx%dx%d is empty", do, ho, wo))
	}
	pl := &convPlan{
		n: sh[0], cin: sh[1], cout: c.OutC, vol: d * h * w, kvol: kd * k * k, wo: wo, r: r,
		out:  sh.Clone(),
		rows: make([][]tapRow, do*ho),
		cols: make([]tapCol, wo),
	}
	pl.out[1] = c.OutC
	if c.rank == 3 {
		pl.out[2] = do
	}
	pl.out[c.rank], pl.out[c.rank+1] = ho, wo
	buf := make([]tapRow, 0, do*ho*kd*k)
	for oz := 0; oz < do; oz++ {
		for oy := 0; oy < ho; oy++ {
			start := len(buf)
			for kz := 0; kz < kd; kz++ {
				iz := oz*s - pd + kz*r
				for ky := 0; ky < k; ky++ {
					iy := oy*s - p + ky*r
					if iz >= 0 && iz < d && iy >= 0 && iy < h {
						buf = append(buf, tapRow{x: (iz*h + iy) * w, w: (kz*k + ky) * k})
					}
				}
			}
			pl.rows[oz*ho+oy] = buf[start:]
		}
	}
	for ox := range pl.cols {
		ix0 := ox*s - p
		lo, hi := 0, k
		for lo < hi && ix0+lo*r < 0 {
			lo++
		}
		for hi > lo && ix0+(hi-1)*r >= w {
			hi--
		}
		pl.cols[ox] = tapCol{lo: lo, hi: hi}
		if lo < hi {
			pl.cols[ox].x = ix0 + lo*r
		}
	}
	return pl
}

// Forward implements Layer. It panics unless x is FP32 [N, InC, (D,) H, W]
// large enough for a non-empty output (programmer invariant: model wiring
// is static).
func (c *Conv) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkF32(x, c.rank+2, "Conv")
	if x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv expects %d input channels, got %d", c.InC, x.Shape[1]))
	}
	pl := c.plan(x.Shape)
	out := tensor.New(tensor.F32, pl.out...)
	c.x, c.pl = x, pl
	xs, wgt, bias, os := x.F32s, c.Weight.W, c.Bias.W, out.F32s
	cin, cout, vol, kvol, wo, r := pl.cin, pl.cout, pl.vol, pl.kvol, pl.wo, pl.r
	ovol := len(pl.rows) * wo
	parallelFor(pl.n*cout, func(job int) {
		ni, co := job/cout, job%cout
		xn := xs[ni*cin*vol:][:cin*vol]
		wco := wgt[co*cin*kvol:][:cin*kvol]
		oc := os[job*ovol:][:ovol]
		for q, rows := range pl.rows {
			orow := oc[q*wo:][:wo]
			for ox, col := range pl.cols {
				acc := bias[co]
				for ci := 0; ci < cin; ci++ {
					xc := xn[ci*vol:][:vol]
					wc := wco[ci*kvol:][:kvol]
					for _, t := range rows {
						xt := xc[t.x+col.x:]
						for j, wv := range wc[t.w+col.lo : t.w+col.hi] {
							acc += xt[j*r] * wv
						}
					}
				}
				orow[ox] = acc
			}
		}
	})
	return out
}

// Backward implements Layer. It panics unless grad matches the forward
// output shape (programmer invariant).
func (c *Conv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x, pl := c.x, c.pl
	if !grad.Shape.Equal(pl.out) {
		panic(fmt.Sprintf("nn: Conv backward grad shape %v", grad.Shape))
	}
	dx := tensor.New(tensor.F32, x.Shape...)
	xs, gs, dxs, wgt, wgrad := x.F32s, grad.F32s, dx.F32s, c.Weight.W, c.Weight.G
	n, cin, cout, vol, kvol, wo, r := pl.n, pl.cin, pl.cout, pl.vol, pl.kvol, pl.wo, pl.r
	ovol := len(pl.rows) * wo

	// dW and dB: accumulate per output channel (parallel over co, serial
	// over batch to avoid write races on the shared accumulators).
	parallelFor(cout, func(co int) {
		gwco := wgrad[co*cin*kvol:][:cin*kvol]
		var db float32
		for ni := 0; ni < n; ni++ {
			gc := gs[(ni*cout+co)*ovol:][:ovol]
			xn := xs[ni*cin*vol:][:cin*vol]
			for q, rows := range pl.rows {
				for ox, gv := range gc[q*wo:][:wo] {
					if gv == 0 {
						continue
					}
					db += gv
					col := pl.cols[ox]
					for ci := 0; ci < cin; ci++ {
						xc := xn[ci*vol:][:vol]
						gwc := gwco[ci*kvol:][:kvol]
						for _, t := range rows {
							xt := xc[t.x+col.x:]
							gwt := gwc[t.w+col.lo : t.w+col.hi]
							for j := range gwt {
								gwt[j] += gv * xt[j*r]
							}
						}
					}
				}
			}
		}
		c.Bias.G[co] += db
	})

	// dX: parallel over (batch, input channel).
	parallelFor(n*cin, func(job int) {
		ni, ci := job/cin, job%cin
		dxc := dxs[job*vol:][:vol]
		for co := 0; co < cout; co++ {
			gc := gs[(ni*cout+co)*ovol:][:ovol]
			wc := wgt[(co*cin+ci)*kvol:][:kvol]
			for q, rows := range pl.rows {
				for ox, gv := range gc[q*wo:][:wo] {
					if gv == 0 {
						continue
					}
					col := pl.cols[ox]
					for _, t := range rows {
						dxt := dxc[t.x+col.x:]
						for j, wv := range wc[t.w+col.lo : t.w+col.hi] {
							dxt[j*r] += gv * wv
						}
					}
				}
			}
		}
	})
	return dx
}

// MaxPool is KxK (2D, over [N, C, H, W]) or KxKxK (3D, over
// [N, C, D, H, W]) max pooling with stride K. A 2D input pools as a
// depth-one volume under a one-deep window.
type MaxPool struct {
	K    int
	rank int // spatial dimensions: 2 or 3
	arg  []int
	inSh tensor.Shape
}

// NewMaxPool2D returns a KxK/stride-K max-pool layer. It panics if k <= 0
// (programmer invariant).
func NewMaxPool2D(k int) *MaxPool { return newMaxPool(2, k) }

// NewMaxPool3D returns a KxKxK/stride-K max-pool layer. It panics if k <= 0
// (programmer invariant).
func NewMaxPool3D(k int) *MaxPool { return newMaxPool(3, k) }

// newMaxPool builds a max-pool over rank spatial dimensions. It panics if
// k <= 0 (programmer invariant).
func newMaxPool(rank, k int) *MaxPool {
	if k <= 0 {
		panic(fmt.Sprintf("nn: bad MaxPool%dD k", rank))
	}
	return &MaxPool{K: k, rank: rank}
}

// Name implements Layer.
func (m *MaxPool) Name() string {
	if m.rank == 3 {
		return "maxpool3d"
	}
	return "maxpool2d"
}

// Params implements Layer.
func (m *MaxPool) Params() []*Param { return nil }

// Forward implements Layer.
func (m *MaxPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkF32(x, m.rank+2, "MaxPool")
	sh := x.Shape
	k, kd, d, h, w := m.K, 1, 1, sh[m.rank], sh[m.rank+1]
	if m.rank == 3 {
		kd, d = k, sh[2]
	}
	do, ho, wo := d/kd, h/k, w/k
	osh := sh.Clone()
	if m.rank == 3 {
		osh[2] = do
	}
	osh[m.rank], osh[m.rank+1] = ho, wo
	out := tensor.New(tensor.F32, osh...)
	m.inSh = sh.Clone()
	if cap(m.arg) < out.Elems() {
		m.arg = make([]int, out.Elems())
	}
	m.arg = m.arg[:out.Elems()]
	xs, vol, ovol := x.F32s, d*h*w, do*ho*wo
	parallelFor(sh[0]*sh[1], func(job int) {
		oc, ac := out.F32s[job*ovol:][:ovol], m.arg[job*ovol:][:ovol]
		for oz := 0; oz < do; oz++ {
			for oy := 0; oy < ho; oy++ {
				orow, arow := oc[(oz*ho+oy)*wo:][:wo], ac[(oz*ho+oy)*wo:][:wo]
				// Each window starts from its first input, so its argmax
				// is always a real index and a window of NaNs (or of
				// -Infs) pools to its first element rather than to -Inf.
				first := job*vol + (oz*kd*h+oy*k)*w
				for ox := range orow {
					orow[ox], arow[ox] = xs[first+ox*k], first+ox*k
				}
				// Each window sees its inputs in (kz, ky, kx) order, one
				// input row at a time.
				for kz := 0; kz < kd; kz++ {
					for ky := 0; ky < k; ky++ {
						off := job*vol + ((oz*kd+kz)*h+oy*k+ky)*w
						row := xs[off:][:wo*k]
						for ox := range orow {
							for kx, v := range row[ox*k:][:k] {
								if v > orow[ox] {
									orow[ox], arow[ox] = v, off+ox*k+kx
								}
							}
						}
					}
				}
			}
		}
	})
	return out
}

// Backward implements Layer.
func (m *MaxPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(tensor.F32, m.inSh...)
	for o, g := range grad.F32s {
		dx.F32s[m.arg[o]] += g
	}
	return dx
}
