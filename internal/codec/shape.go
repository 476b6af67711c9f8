package codec

import "scipp/internal/tensor"

// With variable-shape datasets every opened decoder reports its own
// sample's shape (shape-in-header decode). A Format may also declare two
// optional capabilities:
//
//   - ShapeBounded declares a per-dataset upper bound on decoded shapes.
//   - ShapeProber reads one sample's decoded shape straight from its blob
//     header, without paying a full Open.
//
// No pipeline or service layer reads either: slab pools draw a capacity
// class per sample and caches charge each sample's true bytes. Format
// wrappers (obs.InstrumentFormat) forward both, so wrapping a format never
// hides them. Fixed-shape formats are the degenerate case: their bound is
// the one shape every decoder reports.

// ShapeBounded is implemented by Formats whose decoded samples, while
// individually variable-shaped, share a known upper-bound dtype and shape.
// MaxShape is a sizing bound, never a decode contract: per-sample code must
// take the shape from the opened decoder (or ProbeShape), which is what the
// shapecontract lint rule enforces on hot paths.
type ShapeBounded interface {
	// MaxShape returns the element type and the elementwise upper-bound
	// shape of every sample the format will decode.
	MaxShape() (tensor.DType, tensor.Shape)
}

// MaxShape returns f's declared decoded-shape bound, when it has one.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9); ShapeBounded stays, the benchmark forwards it
func MaxShape(f Format) (tensor.DType, tensor.Shape, bool) {
	if b, ok := f.(ShapeBounded); ok {
		dt, shape := b.MaxShape()
		return dt, shape, true
	}
	return 0, nil, false
}

// ShapeProber is implemented by Formats that can read a sample's decoded
// dtype and shape from its blob header without building a decoder.
type ShapeProber interface {
	// ProbeShape parses only as much of blob as identifies the decoded
	// tensor's dtype and shape.
	ProbeShape(blob []byte) (tensor.DType, tensor.Shape, error)
}

// ProbeShape returns blob's decoded dtype and shape: through f's prober when
// it implements ShapeProber, otherwise by opening the blob and consulting
// the decoder (recycling it immediately). The fallback costs a full Open, so
// hot paths should prefer formats with a real prober.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9); ShapeProber stays, the benchmark forwards it
func ProbeShape(f Format, blob []byte) (tensor.DType, tensor.Shape, error) {
	if p, ok := f.(ShapeProber); ok {
		return p.ProbeShape(blob)
	}
	d, err := f.Open(blob)
	if err != nil {
		return 0, nil, err
	}
	dt, shape := d.OutputDType(), d.OutputShape().Clone()
	Recycle(d)
	return dt, shape, nil
}
