package nn

import (
	"bytes"
	"testing"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

func testModel() *Sequential {
	return NewSequential(
		NewConv2D("c1", 2, 4, 3, 1, 1),
		NewReLU(),
		NewFlatten(),
		NewDense("d1", 4*6*6, 3),
	)
}

func TestSaveLoadWeights(t *testing.T) {
	src := testModel()
	src.InitHe(11)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := testModel()
	dst.InitHe(99) // different init, must be overwritten
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].W {
			if sp[i].W[j] != dp[i].W[j] {
				t.Fatalf("param %s[%d] not restored", sp[i].Name, j)
			}
		}
	}
	// The restored model must compute identically.
	r := xrand.New(3)
	x := randTensor(r, 1, 2, 6, 6)
	a, b := src.Forward(x), dst.Forward(x)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Error("restored model computes differently")
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	src := testModel()
	src.InitHe(1)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, src); err != nil {
		t.Fatal(err)
	}
	// Different topology: wrong parameter count.
	other := NewSequential(NewDense("d1", 4, 2))
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("mismatched param count accepted")
	}
	// Same count, different shapes.
	other2 := NewSequential(
		NewConv2D("c1", 2, 4, 5, 1, 2), // different kernel size
		NewReLU(),
		NewFlatten(),
		NewDense("d1", 4*6*6, 3),
	)
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), other2); err == nil {
		t.Error("mismatched shapes accepted")
	}
	// Garbage input.
	if err := LoadWeights(bytes.NewReader([]byte("junk")), testModel()); err == nil {
		t.Error("garbage checkpoint accepted")
	}
}

func TestSaveWeightsRejectsDuplicateNames(t *testing.T) {
	m := NewSequential(NewDense("same", 2, 2), NewDense("same", 2, 2))
	var buf bytes.Buffer
	if err := SaveWeights(&buf, m); err == nil {
		t.Error("duplicate parameter names accepted")
	}
}
