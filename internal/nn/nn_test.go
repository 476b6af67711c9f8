package nn

import (
	"math"
	"testing"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// numGradParam estimates dLoss/dParam[i] by central differences.
func numGradParam(loss func() float64, w []float32, i int, eps float32) float64 {
	old := w[i]
	w[i] = old + eps
	lp := loss()
	w[i] = old - eps
	lm := loss()
	w[i] = old
	return (lp - lm) / (2 * float64(eps))
}

func randTensor(r *xrand.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(tensor.F32, shape...)
	for i := range t.F32s {
		t.F32s[i] = float32(r.NormFloat64())
	}
	return t
}

// checkLayerGradients verifies analytic gradients (parameters and input)
// against finite differences for layer under a scalar loss sum(out*coef).
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := xrand.New(99)
	out := layer.Forward(x)
	coef := make([]float32, out.Elems())
	for i := range coef {
		coef[i] = float32(r.NormFloat64())
	}
	loss := func() float64 {
		o := layer.Forward(x)
		var l float64
		for i, v := range o.F32s {
			l += float64(v) * float64(coef[i])
		}
		return l
	}
	// Analytic pass.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	out = layer.Forward(x)
	grad := tensor.New(tensor.F32, out.Shape...)
	copy(grad.F32s, coef)
	dx := layer.Backward(grad)

	// Input gradient spot checks.
	for k := 0; k < 10; k++ {
		i := r.Intn(x.Elems())
		num := numGradParam(loss, x.F32s, i, 1e-2)
		got := float64(dx.F32s[i])
		if math.Abs(got-num) > tol*(1+math.Abs(num)) {
			t.Errorf("%s: input grad[%d] = %g, numeric %g", layer.Name(), i, got, num)
		}
	}
	// Parameter gradient spot checks.
	for _, p := range layer.Params() {
		for k := 0; k < 8; k++ {
			i := r.Intn(len(p.W))
			num := numGradParam(loss, p.W, i, 1e-2)
			got := float64(p.G[i])
			if math.Abs(got-num) > tol*(1+math.Abs(num)) {
				t.Errorf("%s: %s grad[%d] = %g, numeric %g", layer.Name(), p.Name, i, got, num)
			}
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	r := xrand.New(1)
	c := NewConv2D("c", 2, 3, 3, 1, 1)
	NewSequential(c).InitHe(5)
	x := randTensor(r, 2, 2, 6, 7)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestConv2DStride2Gradients(t *testing.T) {
	r := xrand.New(2)
	c := NewConv2D("c", 1, 2, 3, 2, 1)
	NewSequential(c).InitHe(6)
	x := randTensor(r, 1, 1, 8, 8)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestConv3DGradients(t *testing.T) {
	r := xrand.New(3)
	c := NewConv3D("c", 2, 2, 3, 1, 1)
	NewSequential(c).InitHe(7)
	x := randTensor(r, 1, 2, 4, 5, 4)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestConv3DStride2Gradients(t *testing.T) {
	r := xrand.New(4)
	c := NewConv3D("c", 1, 2, 2, 2, 0)
	NewSequential(c).InitHe(8)
	x := randTensor(r, 2, 1, 6, 6, 6)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestDenseGradients(t *testing.T) {
	r := xrand.New(5)
	d := NewDense("d", 7, 4)
	NewSequential(d).InitHe(9)
	x := randTensor(r, 3, 7)
	checkLayerGradients(t, d, x, 1e-2)
}

func TestReLUGradients(t *testing.T) {
	r := xrand.New(6)
	x := randTensor(r, 2, 10)
	checkLayerGradients(t, NewReLU(), x, 1e-2)
}

func TestMaxPool2DGradients(t *testing.T) {
	r := xrand.New(8)
	x := randTensor(r, 2, 2, 6, 6)
	checkLayerGradients(t, NewMaxPool2D(2), x, 1e-2)
}

func TestMaxPool3DGradients(t *testing.T) {
	r := xrand.New(9)
	x := randTensor(r, 1, 2, 4, 4, 4)
	checkLayerGradients(t, NewMaxPool3D(2), x, 1e-2)
}

// TestMaxPoolNaNWindow pools an input whose first window is all NaN: the
// window pools to NaN with its argmax at a real input, so Backward routes
// the window's gradient there instead of indexing -1, and the other
// windows are untouched.
func TestMaxPoolNaNWindow(t *testing.T) {
	nan := float32(math.NaN())
	for _, tc := range []struct {
		pool  *MaxPool
		shape []int
	}{
		{NewMaxPool2D(2), []int{1, 1, 2, 4}},
		{NewMaxPool3D(2), []int{1, 1, 2, 2, 4}},
	} {
		x := tensor.New(tensor.F32, tc.shape...)
		for i := range x.F32s {
			x.F32s[i] = float32(i)
		}
		// The first window: x in {0, 1} of every row.
		w := tc.shape[len(tc.shape)-1]
		for row := 0; row < len(x.F32s)/w; row++ {
			x.F32s[row*w], x.F32s[row*w+1] = nan, nan
		}
		out := tc.pool.Forward(x)
		if len(out.F32s) != 2 || !math.IsNaN(float64(out.F32s[0])) || out.F32s[1] != float32(len(x.F32s)-1) {
			t.Fatalf("%s: pooled %v, want [NaN %d]", tc.pool.Name(), out.F32s, len(x.F32s)-1)
		}
		grad := tensor.FromF32([]float32{3, 5}, out.Shape...)
		dx := tc.pool.Backward(grad)
		if dx.F32s[0] != 3 || dx.F32s[len(dx.F32s)-1] != 5 {
			t.Fatalf("%s: gradient %v, want 3 at the NaN window's first input and 5 at the last", tc.pool.Name(), dx.F32s)
		}
	}
}

func TestUpsample2DGradients(t *testing.T) {
	r := xrand.New(10)
	x := randTensor(r, 1, 2, 3, 3)
	checkLayerGradients(t, NewUpsample2D(2), x, 1e-2)
}

func TestUpsampleInvertsPoolShapes(t *testing.T) {
	r := xrand.New(11)
	x := randTensor(r, 1, 3, 8, 8)
	pooled := NewMaxPool2D(2).Forward(x)
	up := NewUpsample2D(2).Forward(pooled)
	if !up.Shape.Equal(x.Shape) {
		t.Errorf("pool+upsample shape %v, want %v", up.Shape, x.Shape)
	}
}

func TestFlatten(t *testing.T) {
	r := xrand.New(12)
	x := randTensor(r, 2, 3, 4)
	f := NewFlatten()
	y := f.Forward(x)
	if !y.Shape.Equal(tensor.Shape{2, 12}) {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	g := f.Backward(y)
	if !g.Shape.Equal(x.Shape) {
		t.Fatalf("unflatten shape %v", g.Shape)
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2)
	target := tensor.FromF32([]float32{1, 1, 3, 2}, 2, 2)
	loss, grad := MSELoss(pred, target)
	if math.Abs(loss-(0+1+0+4)/4.0) > 1e-6 {
		t.Errorf("MSE = %g", loss)
	}
	// grad = 2*(pred-target)/n
	if math.Abs(float64(grad.F32s[1])-0.5) > 1e-6 || math.Abs(float64(grad.F32s[3])-1.0) > 1e-6 {
		t.Errorf("MSE grad = %v", grad.F32s)
	}
}

func TestMSEGradientNumeric(t *testing.T) {
	r := xrand.New(13)
	pred := randTensor(r, 2, 3)
	target := randTensor(r, 2, 3)
	_, grad := MSELoss(pred, target)
	for i := range pred.F32s {
		num := numGradParam(func() float64 { l, _ := MSELoss(pred, target); return l }, pred.F32s, i, 1e-3)
		if math.Abs(float64(grad.F32s[i])-num) > 1e-3 {
			t.Errorf("MSE grad[%d] = %g, numeric %g", i, grad.F32s[i], num)
		}
	}
}

func TestSoftmaxCE(t *testing.T) {
	// Perfectly confident correct logits give near-zero loss.
	logits := tensor.New(tensor.F32, 1, 3, 2, 2)
	labels := tensor.New(tensor.I16, 1, 2, 2)
	for p := 0; p < 4; p++ {
		labels.I16s[p] = int16(p % 3)
		logits.F32s[(p%3)*4+p] = 50
	}
	loss, _ := SoftmaxCrossEntropy2D(logits, labels)
	if loss > 1e-6 {
		t.Errorf("confident correct loss = %g", loss)
	}
	// Uniform logits give log(K).
	logits = tensor.New(tensor.F32, 1, 3, 2, 2)
	loss, _ = SoftmaxCrossEntropy2D(logits, labels)
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Errorf("uniform loss = %g, want log 3", loss)
	}
}

func TestSoftmaxCEGradientNumeric(t *testing.T) {
	r := xrand.New(14)
	logits := randTensor(r, 2, 3, 2, 2)
	labels := tensor.New(tensor.I16, 2, 2, 2)
	for i := range labels.I16s {
		labels.I16s[i] = int16(r.Intn(3))
	}
	_, grad := SoftmaxCrossEntropy2D(logits, labels)
	for k := 0; k < 12; k++ {
		i := r.Intn(logits.Elems())
		num := numGradParam(func() float64 {
			l, _ := SoftmaxCrossEntropy2D(logits, labels)
			return l
		}, logits.F32s, i, 1e-2)
		if math.Abs(float64(grad.F32s[i])-num) > 1e-3 {
			t.Errorf("CE grad[%d] = %g, numeric %g", i, grad.F32s[i], num)
		}
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	// Minimize (w-3)^2 with SGD+momentum.
	p := newParam("w", 1)
	p.W[0] = 0
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 200; i++ {
		p.ZeroGrad()
		p.G[0] = 2 * (p.W[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W[0])-3) > 1e-3 {
		t.Errorf("SGD converged to %g, want 3", p.W[0])
	}
}

func TestAdamConverges(t *testing.T) {
	p := newParam("w", 2)
	p.W[0], p.W[1] = -4, 7
	opt := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		p.ZeroGrad()
		p.G[0] = 2 * (p.W[0] - 1)
		p.G[1] = 8 * (p.W[1] - 2) // ill-conditioned pair
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.W[0])-1) > 1e-2 || math.Abs(float64(p.W[1])-2) > 1e-2 {
		t.Errorf("Adam converged to %v", p.W)
	}
}

func TestWarmupSchedule(t *testing.T) {
	s := WarmupSchedule{Base: 1.0, WarmupSteps: 10, DecayAt: []int{100}, DecayFactor: 0.1}
	if got := s.At(0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("step 0 lr = %g", got)
	}
	if got := s.At(9); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("step 9 lr = %g", got)
	}
	if got := s.At(50); got != 1.0 {
		t.Errorf("step 50 lr = %g", got)
	}
	if got := s.At(150); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("step 150 lr = %g", got)
	}
}

func TestSequentialEndToEnd(t *testing.T) {
	// A small conv net must fit random data: loss decreases monotonically
	// enough to halve.
	r := xrand.New(20)
	model := NewSequential(
		NewConv2D("c1", 1, 4, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense("d1", 4*4*4, 3),
	)
	model.InitHe(21)
	x := randTensor(r, 4, 1, 8, 8)
	target := randTensor(r, 4, 3)
	opt := NewAdam(0.01)
	first, last := 0.0, 0.0
	for i := 0; i < 60; i++ {
		model.ZeroGrad()
		out := model.Forward(x)
		loss, grad := MSELoss(out, target)
		if i == 0 {
			first = loss
		}
		last = loss
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if last > first/2 {
		t.Errorf("training did not reduce loss: %g -> %g", first, last)
	}
	if model.ParamCount() == 0 {
		t.Error("ParamCount is zero")
	}
}

func TestInitHeDeterministic(t *testing.T) {
	m1 := NewSequential(NewConv2D("c", 2, 2, 3, 1, 1))
	m2 := NewSequential(NewConv2D("c", 2, 2, 3, 1, 1))
	m1.InitHe(42)
	m2.InitHe(42)
	p1, p2 := m1.Params()[0], m2.Params()[0]
	for i := range p1.W {
		if p1.W[i] != p2.W[i] {
			t.Fatal("InitHe not deterministic")
		}
	}
	m3 := NewSequential(NewConv2D("c", 2, 2, 3, 1, 1))
	m3.InitHe(43)
	if m3.Params()[0].W[0] == p1.W[0] {
		t.Error("different seeds give identical init")
	}
	// Bias is zeroed.
	if b := m1.Params()[1]; b.W[0] != 0 {
		t.Error("bias not zero-initialized")
	}
}
