package dataserve

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"scipp/internal/fp16"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// residentSamples covers every dtype a decoded sample can have, including
// non-finite float bit patterns that must survive exactly (NaN payloads,
// negative zero, infinities): a resident preserves element bits, never
// values.
func residentSamples() []*tensor.Tensor {
	return []*tensor.Tensor{
		tensor.FromF32([]float32{
			0, 1.5, -2.25,
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7FC00001), // NaN with a payload bit set
			math.Float32frombits(0x80000000), // -0
			42,
		}, 2, 4),
		tensor.FromF16([]fp16.Bits{0x0000, 0x8000, 0x3C00, 0x7E01, 0xFC00, 0x0001}, 6),
		tensor.FromI16([]int16{-32768, -1, 0, 1, 32767, 12345}, 3, 2),
		tensor.New(tensor.F32, 2, 0), // ragged empty sample: a 0-byte resident
	}
}

// TestResidentRoundTrip takes each sample the way a miss does (learn the
// record, copy the raw bytes out) and serves it the way a hit does: the
// materialized tensor has the sample's dtype and shape and every element
// bit.
func TestResidentRoundTrip(t *testing.T) {
	for _, src := range residentSamples() {
		sd := &sharedDataset{pool: pipeline.NewSlabPool(), learned: make([]sampleRecord, 1)}
		sd.learnLocked(0, src, nil)
		rec := &sd.learned[0]
		if !rec.known.Load() || rec.payload != int64(src.Bytes()) {
			t.Fatalf("%s%v: record known=%v payload %d, want known with %d bytes",
				src.DT, src.Shape, rec.known.Load(), rec.payload, src.Bytes())
		}
		resident := append([]byte(nil), tensor.RawBytes(src)...)
		dst, err := sd.materialize(rec, resident)
		if err != nil {
			t.Fatalf("%s%v: materialize: %v", src.DT, src.Shape, err)
		}
		if dst.DT != src.DT || !dst.Shape.Equal(src.Shape) {
			t.Fatalf("%s%v: materialized as %s%v", src.DT, src.Shape, dst.DT, dst.Shape)
		}
		// Compare raw element bits, not values: NaN != NaN under ==.
		if !bytes.Equal(tensor.RawBytes(dst), tensor.RawBytes(src)) {
			t.Errorf("%s%v: round trip not bit-identical", src.DT, src.Shape)
		}
	}
}

// TestResidentPayloadLayout pins a resident's bytes against a one-element-
// at-a-time reference in the host's byte order, with no header, for every
// dtype and a range of lengths.
func TestResidentPayloadLayout(t *testing.T) {
	for n := 0; n <= 9; n++ {
		f16s := make([]fp16.Bits, n)
		i16s := make([]int16, n)
		f32s := make([]float32, n)
		var want16, wantI16, want32 []byte
		for i := 0; i < n; i++ {
			f16s[i] = fp16.Bits(0x8001 + 0x1357*i)
			i16s[i] = int16(-7 - 4099*i)
			f32s[i] = math.Float32frombits(0x7FC00001 + 0x01020304*uint32(i))
			want16 = binary.NativeEndian.AppendUint16(want16, uint16(f16s[i]))
			wantI16 = binary.NativeEndian.AppendUint16(wantI16, uint16(i16s[i]))
			want32 = binary.NativeEndian.AppendUint32(want32, math.Float32bits(f32s[i]))
		}
		for _, tc := range []struct {
			src  *tensor.Tensor
			want []byte
		}{
			{tensor.FromF16(f16s, n), want16},
			{tensor.FromI16(i16s, n), wantI16},
			{tensor.FromF32(f32s, n), want32},
		} {
			if got := tensor.RawBytes(tc.src); !bytes.Equal(got, tc.want) {
				t.Fatalf("%s[%d]: resident % x, want % x", tc.src.DT, n, got, tc.want)
			}
		}
	}
}
