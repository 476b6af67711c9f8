// Package tensor provides dense numeric tensors in FP32 and binary16 with
// the layout transforms the preprocessing pipeline needs.
//
// Samples flow through the system as tensors: DeepCAM samples are
// [C, H, W] FP32 channel stacks, CosmoFlow samples are [C, D, D, D] voxel
// grids. Decoders emit FP16 tensors to feed the mixed-precision training
// path; the fused decode+transpose optimization of the paper (§X) is
// implemented here as strided copy kernels.
package tensor

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"scipp/internal/fp16"
)

// DType identifies a tensor element type.
type DType int

const (
	// F32 is IEEE 754 binary32.
	F32 DType = iota
	// F16 is IEEE 754 binary16.
	F16
	// I16 is a signed 16-bit integer (raw CosmoFlow voxel counts).
	I16
)

// Size returns the element size in bytes. It panics on an unknown dtype
// (programmer invariant: DType values are the package's own constants).
func (d DType) Size() int {
	switch d {
	case F32:
		return 4
	case F16, I16:
		return 2
	}
	panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
}

// String returns the conventional name of the dtype.
func (d DType) String() string {
	switch d {
	case F32:
		return "float32"
	case F16:
		return "float16"
	case I16:
		return "int16"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Shape is a tensor shape, outermost dimension first.
type Shape []int

// Elems returns the total number of elements. It panics on a negative
// dimension (programmer invariant: decoders validate shapes at Open).
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			panic("tensor: negative dimension")
		}
		n *= d
	}
	return n
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// String formats the shape like [16 1152 768].
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Tensor is a dense tensor. Exactly one of F32s, F16s, I16s is non-nil,
// matching DType.
type Tensor struct {
	DT    DType
	Shape Shape
	F32s  []float32
	F16s  []fp16.Bits
	I16s  []int16
}

// New allocates a zeroed tensor of the given dtype and shape. It panics on
// an unknown dtype or negative dimension (programmer invariant: callers on
// decode paths validate blob headers before allocating).
func New(dt DType, shape ...int) *Tensor {
	t := &Tensor{DT: dt, Shape: Shape(shape).Clone()}
	n := t.Shape.Elems()
	switch dt {
	case F32:
		t.F32s = make([]float32, n)
	case F16:
		t.F16s = make([]fp16.Bits, n)
	case I16:
		t.I16s = make([]int16, n)
	default:
		panic("tensor: unknown dtype")
	}
	return t
}

// FromF32 wraps data (not copied) as an F32 tensor of the given shape. It
// panics if the shape does not match len(data) (programmer invariant).
func FromF32(data []float32, shape ...int) *Tensor {
	s := Shape(shape)
	if s.Elems() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match %d elements", s, len(data)))
	}
	return &Tensor{DT: F32, Shape: s.Clone(), F32s: data}
}

// FromI16 wraps data (not copied) as an I16 tensor of the given shape. It
// panics if the shape does not match len(data) (programmer invariant).
//
//lint:ignore deadcode the pipeline and dataserve tests build I16 tensors with it
func FromI16(data []int16, shape ...int) *Tensor {
	s := Shape(shape)
	if s.Elems() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match %d elements", s, len(data)))
	}
	return &Tensor{DT: I16, Shape: s.Clone(), I16s: data}
}

// FromF16 wraps data (not copied) as an F16 tensor of the given shape. It
// panics if the shape does not match len(data) (programmer invariant).
//
//lint:ignore deadcode the pipeline and dataserve tests build F16 tensors with it
func FromF16(data []fp16.Bits, shape ...int) *Tensor {
	s := Shape(shape)
	if s.Elems() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match %d elements", s, len(data)))
	}
	return &Tensor{DT: F16, Shape: s.Clone(), F16s: data}
}

// Elems returns the element count.
func (t *Tensor) Elems() int { return t.Shape.Elems() }

// Bytes returns the payload size in bytes.
func (t *Tensor) Bytes() int { return t.Elems() * t.DT.Size() }

// RawBytes returns t's element storage viewed as bytes in the host's native
// byte order. The view aliases the tensor's memory, it is not a copy: a
// write through either side shows in the other, and the view is valid as
// long as t's storage is. An empty tensor yields an empty slice.
//
// This view and the little-endian element codec below (DecodeLE, AppendLE)
// are the module's only use of unsafe. It exists so an in-process byte
// store (the data service's shared cache) can hold a decoded sample as its
// raw elements and copy them into a tensor again with one memmove. Bytes
// written through this view are only meaningful to a reader in the same
// process, which is the one place byte order cannot differ.
func RawBytes(t *Tensor) []byte {
	switch t.DT {
	case F32:
		return asBytes(t.F32s)
	case F16:
		return asBytes(t.F16s)
	case I16:
		return asBytes(t.I16s)
	}
	return nil
}

// Element is the set of tensor element types.
type Element interface {
	float32 | fp16.Bits | int16
}

// asBytes reinterprets an element slice as its backing bytes.
func asBytes[E Element](s []E) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// hostLE reports whether the host stores elements little-endian, in which
// case an element's in-memory bytes are already its serialized form.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// DecodeLE fills dst with the first len(dst) elements of src, which holds
// them little-endian (the byte order of every on-disk payload here). It
// panics if src is shorter than that (programmer invariant: decoders check
// payload lengths at Open). The bits are copied unchanged, NaN payloads
// included. On a little-endian host the decode is one memmove.
func DecodeLE[E Element](dst []E, src []byte) {
	var e E
	src = src[:len(dst)*int(unsafe.Sizeof(e))]
	if hostLE {
		copy(asBytes(dst), src)
		return
	}
	decodeLEPortable(dst, src)
}

// AppendLE appends the little-endian encoding of src to dst and returns the
// extended slice. On a little-endian host the encode is one memmove.
func AppendLE[E Element](dst []byte, src []E) []byte {
	if hostLE {
		return append(dst, asBytes(src)...)
	}
	return appendLEPortable(dst, src)
}

// decodeLEPortable is DecodeLE element by element, correct on any host:
// each element's bits are read little-endian and stored in native order.
func decodeLEPortable[E Element](dst []E, src []byte) {
	b := asBytes(dst)
	if len(b) == 4*len(dst) {
		for i := 0; i < len(b); i += 4 {
			binary.NativeEndian.PutUint32(b[i:], binary.LittleEndian.Uint32(src[i:]))
		}
		return
	}
	for i := 0; i < len(b); i += 2 {
		binary.NativeEndian.PutUint16(b[i:], binary.LittleEndian.Uint16(src[i:]))
	}
}

// appendLEPortable is AppendLE element by element, correct on any host.
func appendLEPortable[E Element](dst []byte, src []E) []byte {
	b := asBytes(src)
	if len(b) == 4*len(src) {
		for i := 0; i < len(b); i += 4 {
			dst = binary.LittleEndian.AppendUint32(dst, binary.NativeEndian.Uint32(b[i:]))
		}
		return dst
	}
	for i := 0; i < len(b); i += 2 {
		dst = binary.LittleEndian.AppendUint16(dst, binary.NativeEndian.Uint16(b[i:]))
	}
	return dst
}

// Clone returns a deep copy.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{DT: t.DT, Shape: t.Shape.Clone()}
	switch t.DT {
	case F32:
		c.F32s = append([]float32(nil), t.F32s...)
	case F16:
		c.F16s = append([]fp16.Bits(nil), t.F16s...)
	case I16:
		c.I16s = append([]int16(nil), t.I16s...)
	}
	return c
}

// At32 returns element i as float32, converting from the stored dtype. It
// panics on an unknown dtype (programmer invariant).
func (t *Tensor) At32(i int) float32 {
	switch t.DT {
	case F32:
		return t.F32s[i]
	case F16:
		return t.F16s[i].ToFloat32()
	case I16:
		return float32(t.I16s[i])
	}
	panic("tensor: unknown dtype")
}

// Set32 stores v at element i, converting to the stored dtype. It panics on
// an unknown dtype (programmer invariant).
//
//lint:ignore deadcode the codec and train tests write single elements with it
func (t *Tensor) Set32(i int, v float32) {
	switch t.DT {
	case F32:
		t.F32s[i] = v
	case F16:
		t.F16s[i] = fp16.FromFloat32(v)
	case I16:
		t.I16s[i] = int16(v)
	default:
		panic("tensor: unknown dtype")
	}
}

// ToF32 returns an F32 tensor with the same contents. If t is already F32 the
// receiver itself is returned.
func (t *Tensor) ToF32() *Tensor {
	if t.DT == F32 {
		return t
	}
	out := New(F32, t.Shape...)
	t.WidenF32(out.F32s, 0)
	return out
}

// WidenF32 writes len(dst) elements of t, starting at element from, into dst
// as FP32: the values ToF32 yields, without allocating a tensor for them.
func (t *Tensor) WidenF32(dst []float32, from int) {
	switch t.DT {
	case F32:
		copy(dst, t.F32s[from:from+len(dst)])
	case F16:
		fp16.ToSlice(dst, t.F16s[from:from+len(dst)])
	case I16:
		for i, v := range t.I16s[from : from+len(dst)] {
			dst[i] = float32(v)
		}
	}
}

// ToF16 returns an F16 tensor with the same contents (rounded). If t is
// already F16 the receiver itself is returned.
//
//lint:ignore deadcode the train tests narrow tensors with it
func (t *Tensor) ToF16() *Tensor {
	if t.DT == F16 {
		return t
	}
	out := New(F16, t.Shape...)
	switch t.DT {
	case F32:
		fp16.FromSlice(out.F16s, t.F32s)
	case I16:
		for i, v := range t.I16s {
			out.F16s[i] = fp16.FromFloat32(float32(v))
		}
	}
	return out
}

// Apply applies f elementwise in FP32 space, in place.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (t *Tensor) Apply(f func(float32) float32) {
	switch t.DT {
	case F32:
		for i, v := range t.F32s {
			t.F32s[i] = f(v)
		}
	case F16:
		for i, v := range t.F16s {
			t.F16s[i] = fp16.FromFloat32(f(v.ToFloat32()))
		}
	case I16:
		for i, v := range t.I16s {
			t.I16s[i] = int16(f(float32(v)))
		}
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// tensors of the same shape, comparing in FP32 space. It panics on a shape
// mismatch (programmer invariant: both sides come from one round-trip).
//
//lint:ignore deadcode the tests of nine packages compare tensors with it
func MaxAbsDiff(a, b *Tensor) float32 {
	if !a.Shape.Equal(b.Shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	var m float32
	for i, n := 0, a.Elems(); i < n; i++ {
		d := a.At32(i) - b.At32(i)
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TransposeCHWtoHWC converts a [C, H, W] FP32/FP16 tensor to [H, W, C]
// layout. The GPU decoder fuses this transform with decompression; the CPU
// baseline performs it as a separate pass (which is part of the preprocessing
// cost the paper's plugin removes). It panics unless t is rank-3
// (programmer invariant).
//
//lint:ignore deadcode the deltafp and codec tests build HWC layouts with it
func TransposeCHWtoHWC(t *Tensor) *Tensor {
	if len(t.Shape) != 3 {
		panic("tensor: TransposeCHWtoHWC needs a rank-3 tensor")
	}
	c, h, w := t.Shape[0], t.Shape[1], t.Shape[2]
	out := New(t.DT, h, w, c)
	for ci := 0; ci < c; ci++ {
		for hi := 0; hi < h; hi++ {
			base := (ci*h + hi) * w
			for wi := 0; wi < w; wi++ {
				src := base + wi
				dst := (hi*w+wi)*c + ci
				switch t.DT {
				case F32:
					out.F32s[dst] = t.F32s[src]
				case F16:
					out.F16s[dst] = t.F16s[src]
				case I16:
					out.I16s[dst] = t.I16s[src]
				}
			}
		}
	}
	return out
}
