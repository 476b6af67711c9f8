package deltafp

import (
	"encoding/binary"
	"math"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fp16"
)

// rawSeg is one hand-built DELTA segment: the pivot's FP32 bits, the
// exponent base, and the code bytes that follow it.
type rawSeg struct {
	pivot  uint32
	minExp uint8
	codes  []byte
}

// deltaBlob frames segs as a one-line [1,1,W] deltafp blob.
func deltaBlob(expBits int, segs []rawSeg) (blob []byte, w int) {
	line := []byte{modeDelta}
	line = binary.LittleEndian.AppendUint16(line, uint16(len(segs)))
	for _, s := range segs {
		line = binary.LittleEndian.AppendUint32(line, s.pivot)
		line = append(line, s.minExp)
		line = binary.LittleEndian.AppendUint16(line, uint16(len(s.codes)+1))
		line = append(line, s.codes...)
		w += len(s.codes) + 1
	}
	for _, v := range []uint32{blobMagic, 1, 1, uint32(w), uint32(expBits), 0, uint32(len(line))} {
		blob = binary.LittleEndian.AppendUint32(blob, v)
	}
	return append(blob, line...), w
}

// refDecode is the format's definition of a DELTA line, one value at a
// time with every field extracted separately — the oracle for the
// segment-wise kernel.
func refDecode(expBits int, segs []rawSeg) []fp16.Bits {
	mantBits := 7 - expBits
	var out []fp16.Bits
	for _, s := range segs {
		v := math.Float32frombits(s.pivot)
		out = append(out, fp16.FromFloat32(v))
		for _, b := range s.codes {
			if b != 0 {
				sign := uint32(b>>7) << 31
				off := uint32(b>>uint(mantBits)) & (1<<uint(expBits) - 1)
				mant := uint32(b) & (1<<uint(mantBits) - 1)
				v += math.Float32frombits(sign | (uint32(s.minExp)+off)<<23 | mant<<uint(23-mantBits))
			}
			out = append(out, fp16.FromFloat32(v))
		}
	}
	return out
}

func TestDeltaKernelPinnedCases(t *testing.T) {
	negZero := uint32(0x80000000)
	f := math.Float32bits
	cases := []struct {
		name    string
		expBits int
		segs    []rawSeg
		want    []fp16.Bits // nil: the reference alone decides
	}{
		{
			// Zero codes must leave the pivot alone: -0 + +0 would be +0.
			name: "-0.0 pivot then zero codes", expBits: 3,
			segs: []rawSeg{{negZero, 120, []byte{0, 0, 0}}},
			want: []fp16.Bits{0x8000, 0x8000, 0x8000, 0x8000},
		},
		{
			name: "one-value segments around a longer one", expBits: 3,
			segs: []rawSeg{
				{f(1.5), 0, nil},
				{f(2), 126, []byte{0x08, 0x88, 0}}, // +0.75, -0.75, 0
				{f(-3), 0, nil},
			},
			want: []fp16.Bits{0x3E00, 0x4000, 0x4180, 0x4000, 0x4000, 0xC200},
		},
		{
			// Offset field all ones at both field widths; with a 6-bit
			// field on a high base the exponent sum spills into the sign bit.
			name: "max exponent offset", expBits: 3,
			segs: []rawSeg{{f(1), 120, []byte{0x7F, 0xFF, 0x70, 0xF1}}},
		},
		{
			name: "max exponent offset, 6-bit field", expBits: 6,
			segs: []rawSeg{
				{f(1), 60, []byte{0x7F, 0xFE, 0x7E, 0xFF}},
				{f(1), 0xF0, []byte{0x7E, 0x7F, 0xFE, 0x01}},
			},
		},
		{
			// Up through 65504 into +Inf, down through 2^-14 into the
			// subnormals and zero, and a NaN pivot carried along.
			name: "leaving the FP16 normal range mid-segment", expBits: 3,
			segs: []rawSeg{
				{f(65000), 135, []byte{0x10, 0x10, 0x90, 0x90}}, // +-512
				{f(1.25e-4), 111, []byte{0x90, 0x90, 0x80 | 0x18, 0x90, 0}},
				{0x7FC01234, 120, []byte{0, 0x11}},
			},
			want: []fp16.Bits{
				0x7BEF, 0x7BFF, 0x7C00, 0x7BFF, 0x7BEF,
				0x0819, 0x0631, 0x0431, 0x0131, 0x80CF, 0x80CF,
				0x7E00, 0x7E00, 0x7E00,
			},
		},
	}
	for _, tc := range cases {
		blob, w := deltaBlob(tc.expBits, tc.segs)
		ref := refDecode(tc.expBits, tc.segs)
		if tc.want != nil {
			for i := range tc.want {
				if ref[i] != tc.want[i] {
					t.Fatalf("%s: reference gives %#04x at %d, pinned %#04x", tc.name, ref[i], i, tc.want[i])
				}
			}
		}
		for _, fm := range []codec.Format{Format(), FormatHWC()} {
			cd, err := fm.Open(blob)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			out, err := codec.Decode(cd)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(out.F16s) != w || len(ref) != w {
				t.Fatalf("%s: decoded %d values, reference %d, want %d", tc.name, len(out.F16s), len(ref), w)
			}
			for i := range ref {
				if out.F16s[i] != ref[i] {
					t.Errorf("%s (%s): value %d = %#04x, reference %#04x", tc.name, fm.Name(), i, out.F16s[i], ref[i])
				}
			}
		}
	}
}
