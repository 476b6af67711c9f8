package deltafp

import (
	"fmt"
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
	in := cd.(*Decoder)
	return &hwcDecoder{inner: in, shape: [3]int{in.h, in.w, in.c}}, nil
}

// hwcDecoder decodes chunks of eight lines directly into [H, W, C] layout.
type hwcDecoder struct {
	inner *Decoder
	shape [3]int // [H, W, C], backing OutputShape
}

// OutputShape implements codec.ChunkDecoder.
func (d *hwcDecoder) OutputShape() tensor.Shape { return d.shape[:] }

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

// DecodeChunk decodes the lines of group chunk into their strided HWC
// positions in dst: element (hi, x, ci) lives at (hi*w + x)*c + ci.
//
//scipp:hotpath
func (d *hwcDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	in := d.inner
	if chunk < 0 || chunk >= in.NumChunks() {
		return fmt.Errorf("deltafp: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F16 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("deltafp: dst must be F16 %v", d.OutputShape())
	}
	return in.decodeGroup(chunk, dst.F16s, lineLayout{h: in.h, rowStride: in.w * in.c, colStride: in.c})
}

// lineScratch recycles the contiguous line buffers lines are decoded into
// before the scatter; chunks decode concurrently, so the scratch is per
// call, not per decoder.
var lineScratch = sync.Pool{New: func() any { return new([]fp16.Bits) }}
