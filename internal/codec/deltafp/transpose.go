package deltafp

import (
	"fmt"
	"math"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/tensor"
)

// FormatHWC returns a deltafp format whose decoder fuses the CHW -> HWC
// layout transpose into decompression — the optimization §X highlights
// ("the fusion of data transpose with decompression thus achieving higher
// efficiency for preparing the data for computation"). The baseline path
// must decode into CHW and then run a separate transpose pass; the fused
// decoder writes each line's values directly to their strided HWC
// destinations while reconstructing them.
func FormatHWC() codec.Format { return formatHWC{} }

func init() {
	codec.Register(Format())
	codec.Register(FormatHWC())
}

type formatHWC struct{}

func (formatHWC) Name() string { return "deltafp-hwc" }

func (formatHWC) Open(blob []byte) (codec.ChunkDecoder, error) {
	cd, err := Format().Open(blob)
	if err != nil {
		return nil, err
	}
	return &hwcDecoder{inner: cd.(*Decoder)}, nil
}

// hwcDecoder decodes line chunks directly into [H, W, C] layout.
type hwcDecoder struct {
	inner *Decoder
}

// OutputShape implements codec.ChunkDecoder.
func (d *hwcDecoder) OutputShape() tensor.Shape {
	return tensor.Shape{d.inner.h, d.inner.w, d.inner.c}
}

// OutputDType implements codec.ChunkDecoder.
func (d *hwcDecoder) OutputDType() tensor.DType { return tensor.F16 }

// NumChunks implements codec.ChunkDecoder.
func (d *hwcDecoder) NumChunks() int { return d.inner.NumChunks() }

// Workload implements codec.ChunkDecoder. The fused transform writes
// strided (uncoalesced) output, which the cost model reflects with a small
// extra op charge; the payoff is eliminating the separate transpose pass.
func (d *hwcDecoder) Workload() codec.Workload {
	wl := d.inner.Workload()
	wl.Ops += d.inner.c * d.inner.h * d.inner.w // strided store overhead
	return wl
}

// DecodeChunk decodes line chunk (channel ci, row hi) into the strided HWC
// positions of dst.
//
//scipp:hotpath
func (d *hwcDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	in := d.inner
	if chunk < 0 || chunk >= in.c*in.h {
		return fmt.Errorf("deltafp: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F16 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("deltafp: dst must be F16 %v", d.OutputShape())
	}
	ci, hi := chunk/in.h, chunk%in.h
	line := in.payload[in.offsets[chunk]:in.offsets[chunk+1]]
	// Destination stride: element (hi, x, ci) lives at (hi*w + x)*c + ci.
	base := hi * in.w * in.c
	put := func(x int, v fp16.Bits) { dst.F16s[base+x*in.c+ci] = v }

	switch line[0] {
	case modeRaw:
		for x := 0; x < in.w; x++ {
			v := math.Float32frombits(leU32(line[1+4*x:]))
			put(x, fp16.FromFloat32(v))
		}
	case modeConst:
		v := fp16.FromFloat32(math.Float32frombits(leU32(line[1:])))
		for x := 0; x < in.w; x++ {
			put(x, v)
		}
	case modeDelta:
		// Reuse the contiguous delta reconstruction, then scatter. The
		// reconstruction itself is the loop-carried part; the scatter is
		// the fused transpose.
		sp := lineScratch.Get().(*[]fp16.Bits)
		if cap(*sp) < in.w {
			//lint:ignore hotalloc pool miss: the scratch line grows once, then recycles
			*sp = make([]fp16.Bits, in.w)
		}
		tmp := (*sp)[:in.w]
		err := in.decodeDeltaLine(line, tmp)
		if err == nil {
			for x, v := range tmp {
				put(x, v)
			}
		}
		lineScratch.Put(sp)
		return err
	}
	return nil
}

// lineScratch recycles the contiguous line buffers DELTA lines are
// reconstructed into before the scatter; chunks decode concurrently, so the
// scratch is per call, not per decoder.
var lineScratch = sync.Pool{New: func() any { return new([]fp16.Bits) }}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
