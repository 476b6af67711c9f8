// Package rawfmt implements the *baseline* decode paths the paper compares
// against: parsing the stock container formats and performing the full
// preprocessing on the host CPU in FP32.
//
//   - "raw-deepcam": CAM5-style h5lite sample files holding an FP32
//     [C, H, W] stack. Baseline preprocessing materializes FP32 (no
//     compression, no FP16).
//   - "raw-cosmo": CosmoFlow records holding 4 x dim^3 int16 counts.
//     Baseline preprocessing applies log(1+count) per voxel in FP32 — the
//     expensive per-value operator pass the LUT codec's fusion eliminates.
package rawfmt

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"scipp/internal/codec"
	"scipp/internal/h5lite"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func init() {
	codec.Register(DeepCAM())
	codec.Register(Cosmo())
}

// DeepCAM returns the baseline format for CAM5-style h5lite blobs.
func DeepCAM() codec.Format { return deepcamFormat{} }

type deepcamFormat struct{}

func (deepcamFormat) Name() string { return "raw-deepcam" }

func (deepcamFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	f, err := h5lite.Read(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("rawfmt: %w", err)
	}
	data, ok := f.Get("climate/data")
	if !ok {
		return nil, errors.New("rawfmt: blob has no climate/data dataset")
	}
	if data.DT != tensor.F32 || len(data.Shape) != 3 {
		return nil, fmt.Errorf("rawfmt: climate/data is %v %v, want rank-3 F32", data.DT, data.Shape)
	}
	return &deepcamDecoder{data: data, blobLen: len(blob)}, nil
}

type deepcamDecoder struct {
	data    *tensor.Tensor
	blobLen int
}

func (d *deepcamDecoder) OutputShape() tensor.Shape { return d.data.Shape }
func (d *deepcamDecoder) OutputDType() tensor.DType { return tensor.F32 }

// NumChunks: the baseline copies channel by channel.
func (d *deepcamDecoder) NumChunks() int { return d.data.Shape[0] }

func (d *deepcamDecoder) Workload() codec.Workload {
	n := d.data.Elems()
	return codec.Workload{
		BytesIn:  d.blobLen,
		BytesOut: 4 * n,
		Ops:      n, // copy per value
		Chunks:   d.data.Shape[0],
	}
}

func (d *deepcamDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	c := d.data.Shape[0]
	if chunk < 0 || chunk >= c {
		return fmt.Errorf("rawfmt: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F32 || !dst.Shape.Equal(d.data.Shape) {
		return fmt.Errorf("rawfmt: dst must be F32 %v", d.data.Shape)
	}
	stride := d.data.Shape[1] * d.data.Shape[2]
	copy(dst.F32s[chunk*stride:(chunk+1)*stride], d.data.F32s[chunk*stride:(chunk+1)*stride])
	return nil
}

// Cosmo returns the baseline format for CosmoFlow records.
func Cosmo() codec.Format { return cosmoFormat{} }

type cosmoFormat struct{}

func (cosmoFormat) Name() string { return "raw-cosmo" }

func (cosmoFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	s, err := synthetic.CosmoFromRecord(blob)
	if err != nil {
		return nil, fmt.Errorf("rawfmt: %w", err)
	}
	return &cosmoDecoder{s: s, blobLen: len(blob), shape: [4]int{4, s.Dim, s.Dim, s.Dim}}, nil
}

type cosmoDecoder struct {
	s       *synthetic.CosmoSample
	blobLen int
	shape   [4]int // [4, dim, dim, dim], backing OutputShape
}

func (d *cosmoDecoder) OutputShape() tensor.Shape { return d.shape[:] }
func (d *cosmoDecoder) OutputDType() tensor.DType { return tensor.F32 }

// NumChunks: one chunk per redshift channel.
func (d *cosmoDecoder) NumChunks() int { return 4 }

func (d *cosmoDecoder) Workload() codec.Workload {
	n := 4 * d.s.Dim * d.s.Dim * d.s.Dim
	return codec.Workload{
		BytesIn:  d.blobLen,
		BytesOut: 4 * n,
		Ops:      n * 8, // per-voxel log evaluation dominates
		Chunks:   4,
	}
}

func (d *cosmoDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	if chunk < 0 || chunk >= 4 {
		return fmt.Errorf("rawfmt: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F32 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("rawfmt: dst must be F32 %v", d.OutputShape())
	}
	vol := d.s.Dim * d.s.Dim * d.s.Dim
	out := dst.F32s[chunk*vol : (chunk+1)*vol]
	src := d.s.Channels[chunk]
	for i, v := range src {
		// The baseline per-voxel preprocessing: log(count + 1) in FP32.
		out[i] = float32(math.Log1p(float64(v)))
	}
	return nil
}

// Params extracts the label parameters from a cosmo record without decoding
// the voxel payload.
func Params(blob []byte) ([4]float32, error) {
	s, err := synthetic.CosmoFromRecord(blob)
	if err != nil {
		return [4]float32{}, err
	}
	return s.Params, nil
}
