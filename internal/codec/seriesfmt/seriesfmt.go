// Package seriesfmt implements the decode path for variable-length
// weather-station time series — the irregular domain the fixed-shape
// pipeline never faced. Unlike the fixed-shape formats, a "raw-series"
// blob's decoded shape is not a dataset constant: every record carries its
// own [C, L] shape in its header, so the decoder returned by Open reports
// that sample's shape, ProbeShape reads it without building a decoder, and
// the only dataset-wide shape is the Bounded wrapper's explicit upper
// bound used for pool and cache sizing.
package seriesfmt

import (
	"fmt"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

func init() {
	codec.Register(Series())
}

// Series returns the variable-length station-series format.
func Series() codec.Format { return seriesFormat{} }

type seriesFormat struct{}

func (seriesFormat) Name() string { return "raw-series" }

// decoderPool recycles seriesDecoder structs between samples: the
// pipeline's decode stage hands each finished decoder back through
// codec.Recycle, so a steady decode loop opens records without allocating.
var decoderPool = sync.Pool{New: func() any { return new(seriesDecoder) }}

func (seriesFormat) Open(blob []byte) (codec.ChunkDecoder, error) {
	c, l, err := synthetic.WeatherHeader(blob)
	if err != nil {
		return nil, fmt.Errorf("seriesfmt: %w", err)
	}
	d := decoderPool.Get().(*seriesDecoder)
	*d = seriesDecoder{blob: blob, channels: c, length: l, shape: [2]int{c, l}}
	return d, nil
}

// ProbeShape implements codec.ShapeProber: the record header alone names
// the decoded shape, so per-sample byte accounting never pays an Open.
func (seriesFormat) ProbeShape(blob []byte) (tensor.DType, tensor.Shape, error) {
	c, l, err := synthetic.WeatherHeader(blob)
	if err != nil {
		return 0, nil, fmt.Errorf("seriesfmt: %w", err)
	}
	return tensor.F32, tensor.Shape{c, l}, nil
}

// Bounded wraps the series format with the archive-level shape bound its
// generator guarantees, implementing codec.ShapeBounded. Nothing in the
// loader or the data service sizes by it. The bound never reaches decode:
// per-sample shapes still come from each record's header.
func Bounded(channels, maxLen int) codec.Format {
	return boundedSeries{channels: channels, maxLen: maxLen}
}

type boundedSeries struct {
	seriesFormat
	channels, maxLen int
}

// MaxShape implements codec.ShapeBounded.
func (b boundedSeries) MaxShape() (tensor.DType, tensor.Shape) {
	return tensor.F32, tensor.Shape{b.channels, b.maxLen}
}

// seriesDecoder decodes one station record, channel row per chunk.
type seriesDecoder struct {
	blob             []byte
	channels, length int
	shape            [2]int // [channels, length], backing OutputShape
}

// Recycle implements codec.Recycler: it drops the blob reference and
// returns the decoder to the pool. The decoder must not be used afterwards.
func (d *seriesDecoder) Recycle() {
	*d = seriesDecoder{}
	decoderPool.Put(d)
}

func (d *seriesDecoder) OutputShape() tensor.Shape { return d.shape[:] }
func (d *seriesDecoder) OutputDType() tensor.DType { return tensor.F32 }

// NumChunks: one independently decodable chunk per sensor channel.
func (d *seriesDecoder) NumChunks() int { return d.channels }

func (d *seriesDecoder) Workload() codec.Workload {
	n := d.channels * d.length
	return codec.Workload{
		BytesIn:  len(d.blob),
		BytesOut: 4 * n,
		Ops:      n, // bit copy per observation
		Chunks:   d.channels,
	}
}

func (d *seriesDecoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	if chunk < 0 || chunk >= d.channels {
		return fmt.Errorf("seriesfmt: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F32 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("seriesfmt: dst must be F32 %v", d.OutputShape())
	}
	tensor.DecodeLE(dst.F32s[chunk*d.length:(chunk+1)*d.length], d.blob[28+4*chunk*d.length:])
	return nil
}

// Params extracts the label parameters from a station record without
// decoding the observation payload.
//
//lint:ignore deadcode the seriesfmt and codec fuzz tests read a blob's station normals back with it
func Params(blob []byte) ([4]float32, error) {
	if _, _, err := synthetic.WeatherHeader(blob); err != nil {
		return [4]float32{}, fmt.Errorf("seriesfmt: %w", err)
	}
	var p [4]float32
	tensor.DecodeLE(p[:], blob[12:])
	return p, nil
}
