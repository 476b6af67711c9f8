package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// digest is the FNV-64a hash of a tensor's shape and of its FP32 element
// bits, little-endian.
func digest(shape tensor.Shape, vals []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(u uint32) {
		binary.LittleEndian.PutUint32(b[:], u)
		h.Write(b[:])
	}
	for _, d := range shape {
		put(uint32(d))
	}
	for _, v := range vals {
		put(math.Float32bits(v))
	}
	return h.Sum64()
}

// layerDigests runs one seeded forward and backward pass through layer and
// returns the digests of the output, the input gradient and each parameter
// gradient, in Params order.
func layerDigests(layer Layer, seed uint64, shape ...int) []uint64 {
	r := xrand.New(seed)
	NewSequential(layer).InitHe(seed + 1)
	for _, p := range layer.Params() {
		if len(p.Shape) == 1 { // biases are born zero; make them count
			for i := range p.W {
				p.W[i] = float32(r.NormFloat64())
			}
		}
	}
	x := randTensor(r, shape...)
	out := layer.Forward(x)
	grad := randTensor(r, out.Shape...)
	dx := layer.Backward(grad)
	sums := []uint64{digest(out.Shape, out.F32s), digest(dx.Shape, dx.F32s)}
	for _, p := range layer.Params() {
		sums = append(sums, digest(p.Shape, p.G))
	}
	return sums
}

// TestLayerDigests pins every bit of the convolution and max-pool layers'
// outputs and gradients, so a rewrite of their loops must keep each multiply
// and add in the same order. The Go compiler may fuse a multiply and an add
// into one rounding on arm64, ppc64 or s390x but never on amd64, so the
// constants are pinned there.
func TestLayerDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64, where multiply and add round separately")
	}
	cases := []struct {
		name  string
		layer Layer
		shape []int
		want  []uint64
	}{
		{"conv2d", NewConv2D("c", 3, 4, 3, 1, 1), []int{2, 3, 7, 9}, []uint64{0x6a98ad0fbddbc3f4, 0xb5bf09d5af23610c, 0x78fb67842116d536, 0x7155b428dcf0e1b1}},
		{"conv2d-stride2", NewConv2D("c", 3, 4, 3, 2, 1), []int{2, 3, 9, 8}, []uint64{0xc7e99cf0934593cd, 0x4ca833f6971f78e3, 0x944a1bc6146b7a61, 0xdeea9c6b245df253}},
		{"dilated", NewDilatedConv2D("c", 3, 4, 3, 1, 2, 2), []int{2, 3, 9, 10}, []uint64{0x963f2273be73d62b, 0x4f80dd4e77458bf9, 0xc20df1c77a453d69, 0xaa10eddf6cb23100}},
		{"conv3d", NewConv3D("c", 2, 3, 3, 1, 1), []int{2, 2, 5, 6, 4}, []uint64{0x725d33b2d8bc7eb8, 0x7d45ddb0b019412c, 0x92dc993502b06c9c, 0x9bbe78a1a20c25dd}},
		{"conv3d-stride2", NewConv3D("c", 2, 3, 3, 2, 1), []int{2, 2, 7, 6, 5}, []uint64{0x33dbb36804103ee3, 0xc43afc74963cdfa2, 0x7875bed077d11117, 0x575924a4844c0750}},
		{"maxpool2d", NewMaxPool2D(2), []int{2, 3, 6, 8}, []uint64{0x7ea7a8f3d7bd13ed, 0x8922f5cbc2e00ef6}},
		{"maxpool3d", NewMaxPool3D(2), []int{2, 2, 4, 6, 4}, []uint64{0xb3768e587de597bc, 0xf29e610101247a96}},
	}
	for i, tc := range cases {
		got := layerDigests(tc.layer, uint64(40+i), tc.shape...)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: digests %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

// benchLayer times one forward and one backward pass per op.
func benchLayer(b *testing.B, layer Layer, shape ...int) {
	r := xrand.New(1)
	NewSequential(layer).InitHe(2)
	x := randTensor(r, shape...)
	grad := randTensor(r, layer.Forward(x).Shape...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x)
		layer.Backward(grad)
	}
}

// BenchmarkConv runs the convolutions at the sizes the paper suite trains:
// mini-DeepCAM's enc2 and its dilated bottleneck on Fig 6's 8×48×72 stacks
// (batch 2), and mini-CosmoFlow's first layer on Fig 7's 4×16³ volumes
// (batch 4).
func BenchmarkConv(b *testing.B) {
	b.Run("2d", func(b *testing.B) { benchLayer(b, NewConv2D("enc2", 16, 32, 3, 1, 1), 2, 16, 24, 36) })
	b.Run("dilated", func(b *testing.B) { benchLayer(b, NewDilatedConv2D("mid", 32, 32, 3, 1, 2, 2), 2, 32, 12, 18) })
	b.Run("3d", func(b *testing.B) { benchLayer(b, NewConv3D("c1", 4, 8, 3, 1, 1), 4, 4, 16, 16, 16) })
}

// BenchmarkMaxPool runs the pools that follow mini-DeepCAM's enc1 and
// mini-CosmoFlow's c1 at the same sizes.
func BenchmarkMaxPool(b *testing.B) {
	b.Run("2d", func(b *testing.B) { benchLayer(b, NewMaxPool2D(2), 2, 16, 48, 72) })
	b.Run("3d", func(b *testing.B) { benchLayer(b, NewMaxPool3D(2), 4, 8, 16, 16, 16) })
}
