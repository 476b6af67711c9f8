package nn

import (
	"math"
	"testing"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

func TestDilatedConv2DGradients(t *testing.T) {
	r := xrand.New(30)
	c := NewDilatedConv2D("c", 2, 2, 3, 1, 2, 2)
	NewSequential(c).InitHe(31)
	x := randTensor(r, 1, 2, 9, 9)
	checkLayerGradients(t, c, x, 2e-2)
}

func TestDilationOneMatchesPlainConv(t *testing.T) {
	r := xrand.New(32)
	plain := NewConv2D("p", 2, 3, 3, 1, 1)
	dil := NewDilatedConv2D("d", 2, 3, 3, 1, 1, 1)
	NewSequential(plain).InitHe(33)
	// Copy weights so both compute the same function.
	copy(dil.Weight.W, plain.Weight.W)
	copy(dil.Bias.W, plain.Bias.W)
	x := randTensor(r, 2, 2, 8, 10)
	a := plain.Forward(x)
	b := dil.Forward(x)
	if !a.Shape.Equal(b.Shape) {
		t.Fatalf("shapes differ: %v vs %v", a.Shape, b.Shape)
	}
	if d := tensor.MaxAbsDiff(a, b); d > 1e-6 {
		t.Errorf("dilation=1 differs from plain conv by %g", d)
	}
}

func TestDilationEnlargesReceptiveField(t *testing.T) {
	// A centered impulse through a dilated 3x3 kernel must place taps
	// Dilation pixels apart.
	c := NewDilatedConv2D("c", 1, 1, 3, 1, 2, 2)
	for i := range c.Weight.W {
		c.Weight.W[i] = 1
	}
	x := tensor.New(tensor.F32, 1, 1, 9, 9)
	x.F32s[4*9+4] = 1 // impulse at center
	out := c.Forward(x)
	if !out.Shape.Equal(tensor.Shape{1, 1, 9, 9}) {
		t.Fatalf("same-pad dilated output shape %v", out.Shape)
	}
	// Output at positions 2 pixels from center should see the impulse.
	if out.F32s[2*9+2] != 1 || out.F32s[4*9+4] != 1 || out.F32s[6*9+6] != 1 {
		t.Error("dilated taps not 2 pixels apart")
	}
	// Odd offsets do not align with any tap.
	if out.F32s[3*9+4] != 0 {
		t.Error("tap at dilation-misaligned position")
	}
}

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout(0.5, 7)
	x := tensor.New(tensor.F32, 1, 1000)
	for i := range x.F32s {
		x.F32s[i] = 1
	}
	out := d.Forward(x)
	zeros, kept := 0, 0
	var sum float64
	for _, v := range out.F32s {
		if v == 0 {
			zeros++
		} else {
			kept++
			sum += float64(v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000 at p=0.5", zeros)
	}
	// Inverted dropout: kept values scaled by 2, expectation preserved.
	if kept > 0 && math.Abs(sum/1000-1) > 0.15 {
		t.Errorf("expectation not preserved: %g", sum/1000)
	}
	// Eval mode is identity.
	d.Train = false
	out2 := d.Forward(x)
	if tensor.MaxAbsDiff(out2, x) != 0 {
		t.Error("eval-mode dropout altered input")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	d := NewDropout(0.3, 9)
	x := tensor.New(tensor.F32, 1, 64)
	for i := range x.F32s {
		x.F32s[i] = float32(i + 1)
	}
	out := d.Forward(x)
	grad := tensor.New(tensor.F32, 1, 64)
	for i := range grad.F32s {
		grad.F32s[i] = 1
	}
	dx := d.Backward(grad)
	for i := range dx.F32s {
		if (out.F32s[i] == 0) != (dx.F32s[i] == 0) {
			t.Fatalf("grad mask mismatch at %d", i)
		}
		if out.F32s[i] != 0 {
			want := float32(1 / (1 - 0.3))
			if math.Abs(float64(dx.F32s[i]-want)) > 1e-6 {
				t.Fatalf("grad scale %g, want %g", dx.F32s[i], want)
			}
		}
	}
}

func TestDropoutDeterministicBySeed(t *testing.T) {
	x := tensor.New(tensor.F32, 1, 128)
	for i := range x.F32s {
		x.F32s[i] = 1
	}
	a := NewDropout(0.5, 42).Forward(x)
	b := NewDropout(0.5, 42).Forward(x)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Error("same seed produced different masks")
	}
	c := NewDropout(0.5, 43).Forward(x)
	if tensor.MaxAbsDiff(a, c) == 0 {
		t.Error("different seeds produced identical masks")
	}
}

func TestDropoutValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=1 accepted")
		}
	}()
	NewDropout(1.0, 1)
}

func TestLeakyReLUGradients(t *testing.T) {
	r := xrand.New(50)
	x := randTensor(r, 2, 12)
	checkLayerGradients(t, NewLeakyReLU(0.1), x, 1e-2)
}

func TestLeakyReLUForward(t *testing.T) {
	l := NewLeakyReLU(0.1)
	x := tensor.FromF32([]float32{-2, 0, 3}, 3)
	out := l.Forward(x)
	if out.F32s[0] != -0.2 || out.F32s[1] != 0 || out.F32s[2] != 3 {
		t.Errorf("LeakyReLU forward: %v", out.F32s)
	}
	defer func() {
		if recover() == nil {
			t.Error("alpha=1 accepted")
		}
	}()
	NewLeakyReLU(1)
}

func TestConvRejectsInputSmallerThanKernel(t *testing.T) {
	// A 3-tap stride-2 kernel over a 2x2 unpadded input has no position:
	// truncating division once rounded its extent up to a 1x1 output.
	x := tensor.New(tensor.F32, 1, 1, 2, 2)
	for _, c := range []Layer{NewConv2D("c", 1, 1, 3, 2, 0), NewDilatedConv2D("d", 1, 1, 2, 3, 0, 3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: empty output accepted", c.Name())
				}
			}()
			c.Forward(x)
		}()
	}
}
