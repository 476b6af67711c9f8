package tensor

import (
	"testing"
	"testing/quick"

	"scipp/internal/fp16"
)

func TestShapeElems(t *testing.T) {
	if got := (Shape{16, 1152, 768}).Elems(); got != 16*1152*768 {
		t.Errorf("Elems = %d", got)
	}
	if got := (Shape{}).Elems(); got != 1 {
		t.Errorf("scalar Elems = %d, want 1", got)
	}
	if got := (Shape{4, 0, 3}).Elems(); got != 0 {
		t.Errorf("zero-dim Elems = %d, want 0", got)
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{2, 3}
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone not equal")
	}
	c[0] = 9
	if s[0] == 9 {
		t.Error("clone aliases original")
	}
	if s.Equal(Shape{2, 3, 1}) || s.Equal(Shape{3, 2}) {
		t.Error("Equal false positives")
	}
}

func TestNewAllocations(t *testing.T) {
	for _, dt := range []DType{F32, F16, I16} {
		x := New(dt, 2, 3)
		if x.Elems() != 6 {
			t.Fatalf("%v: Elems = %d", dt, x.Elems())
		}
		if x.Bytes() != 6*dt.Size() {
			t.Fatalf("%v: Bytes = %d", dt, x.Bytes())
		}
		for i := 0; i < 6; i++ {
			if x.At32(i) != 0 {
				t.Fatalf("%v: element %d not zero", dt, i)
			}
		}
	}
}

func TestSetAtRoundtrip(t *testing.T) {
	x := New(F32, 4)
	x.Set32(2, 3.5)
	if x.At32(2) != 3.5 {
		t.Error("F32 set/get mismatch")
	}
	y := New(F16, 4)
	y.Set32(1, 1.5)
	if y.At32(1) != 1.5 {
		t.Error("F16 set/get mismatch for exactly representable value")
	}
	z := New(I16, 4)
	z.Set32(0, 123)
	if z.At32(0) != 123 {
		t.Error("I16 set/get mismatch")
	}
}

func TestConversions(t *testing.T) {
	x := FromF32([]float32{0, 1, -2, 0.5}, 4)
	h := x.ToF16()
	if h.DT != F16 {
		t.Fatal("ToF16 dtype")
	}
	back := h.ToF32()
	for i := range x.F32s {
		if back.F32s[i] != x.F32s[i] {
			t.Errorf("idx %d: %g != %g", i, back.F32s[i], x.F32s[i])
		}
	}
	// Identity conversions return the receiver.
	if x.ToF32() != x {
		t.Error("ToF32 on F32 should return receiver")
	}
	if h.ToF16() != h {
		t.Error("ToF16 on F16 should return receiver")
	}
	i16 := FromI16([]int16{0, 7, -3}, 3)
	f := i16.ToF32()
	if f.F32s[1] != 7 || f.F32s[2] != -3 {
		t.Error("I16 -> F32 conversion wrong")
	}
}

func TestFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromF32 with wrong shape did not panic")
		}
	}()
	FromF32(make([]float32, 5), 2, 3)
}

func TestApply(t *testing.T) {
	x := FromF32([]float32{1, 2, 3}, 3)
	x.Apply(func(v float32) float32 { return v * 2 })
	if x.F32s[2] != 6 {
		t.Error("Apply failed on F32")
	}
	h := New(F16, 2)
	h.Set32(0, 1)
	h.Apply(func(v float32) float32 { return v + 0.5 })
	if h.At32(0) != 1.5 {
		t.Error("Apply failed on F16")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromF32([]float32{1, 2, 3}, 3)
	b := FromF32([]float32{1, 2.5, 2}, 3)
	if got := MaxAbsDiff(a, b); got != 1 {
		t.Errorf("MaxAbsDiff = %g, want 1", got)
	}
	if got := MaxAbsDiff(a, a.Clone()); got != 0 {
		t.Errorf("MaxAbsDiff with clone = %g, want 0", got)
	}
}

func TestCloneDeep(t *testing.T) {
	a := FromF32([]float32{1, 2}, 2)
	c := a.Clone()
	c.F32s[0] = 9
	if a.F32s[0] == 9 {
		t.Error("Clone shares storage")
	}
}

func TestTransposeCHWtoHWC(t *testing.T) {
	c, h, w := 2, 3, 4
	x := New(F32, c, h, w)
	for i := range x.F32s {
		x.F32s[i] = float32(i)
	}
	y := TransposeCHWtoHWC(x)
	if !y.Shape.Equal(Shape{h, w, c}) {
		t.Fatalf("transposed shape %v", y.Shape)
	}
	for ci := 0; ci < c; ci++ {
		for hi := 0; hi < h; hi++ {
			for wi := 0; wi < w; wi++ {
				src := x.F32s[(ci*h+hi)*w+wi]
				dst := y.F32s[(hi*w+wi)*c+ci]
				if src != dst {
					t.Fatalf("transpose mismatch at c=%d h=%d w=%d", ci, hi, wi)
				}
			}
		}
	}
}

func TestTransposePropertyPreservesMultiset(t *testing.T) {
	f := func(seed uint8) bool {
		c, h, w := 3, 5, 7
		x := New(F16, c, h, w)
		for i := range x.F16s {
			x.F16s[i] = fp16.Bits(uint16(i)*31 + uint16(seed))
		}
		y := TransposeCHWtoHWC(x)
		// sum of raw bits must be preserved (cheap multiset check).
		var sx, sy uint64
		for _, v := range x.F16s {
			sx += uint64(v)
		}
		for _, v := range y.F16s {
			sy += uint64(v)
		}
		return sx == sy && y.Elems() == x.Elems()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDTypeString(t *testing.T) {
	if F32.String() != "float32" || F16.String() != "float16" || I16.String() != "int16" {
		t.Error("DType String names wrong")
	}
}

func TestRawBytesAliasesStorage(t *testing.T) {
	for _, dt := range []DType{F32, F16, I16} {
		x := New(dt, 3, 5)
		raw := RawBytes(x)
		if len(raw) != x.Bytes() {
			t.Fatalf("%s: len(RawBytes) = %d, want Bytes() = %d", dt, len(raw), x.Bytes())
		}
		// A write through the view lands in the last element, and a write
		// to the element shows in the view: the two share memory.
		last := len(raw) - dt.Size()
		for i := last; i < len(raw); i++ {
			raw[i] = 0xFF
		}
		if got := x.At32(x.Elems() - 1); got == 0 {
			t.Errorf("%s: write through RawBytes did not reach the element storage", dt)
		}
		x.Set32(0, 1)
		zero := true
		for _, b := range raw[:dt.Size()] {
			zero = zero && b == 0
		}
		if zero {
			t.Errorf("%s: element write did not show through RawBytes", dt)
		}
	}
}

func TestRawBytesRoundTripsByCopy(t *testing.T) {
	src := FromF16([]fp16.Bits{0x3C00, 0xC000, 0x7BFF, 0x0001}, 2, 2)
	dst := New(F16, 2, 2)
	copy(RawBytes(dst), RawBytes(src))
	for i := range src.F16s {
		if dst.F16s[i] != src.F16s[i] {
			t.Fatalf("element %d: %#x after copy, want %#x", i, dst.F16s[i], src.F16s[i])
		}
	}
}

func TestRawBytesEmpty(t *testing.T) {
	for _, dt := range []DType{F32, F16, I16} {
		if raw := RawBytes(New(dt, 4, 0)); len(raw) != 0 {
			t.Errorf("%s: empty tensor RawBytes has %d bytes", dt, len(raw))
		}
	}
}
