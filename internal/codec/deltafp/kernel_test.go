package deltafp

import (
	"encoding/binary"
	"fmt"
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
// segment-wise kernel. A NaN running value stays as it is: adding a NaN
// delta to it would leave the choice between the two NaNs to the compiled
// add's operand order.
func refDecode(expBits int, segs []rawSeg) []fp16.Bits {
	mantBits := 7 - expBits
	var out []fp16.Bits
	for _, s := range segs {
		v := math.Float32frombits(s.pivot)
		out = append(out, fp16.FromFloat32(v))
		for _, b := range s.codes {
			if b != 0 && v == v {
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

// kernelCase is one hand-built DELTA line for the kernel tests.
type kernelCase struct {
	name    string
	expBits int
	segs    []rawSeg
	want    []fp16.Bits // nil: the reference alone decides
}

// pinnedCases are the kernel's edge cases; they also seed FuzzDeltaKernel.
var pinnedCases = func() []kernelCase {
	negZero := uint32(0x80000000)
	f := math.Float32bits
	return append([]kernelCase{
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
		{
			// The middle segment climbs to 65520, which rounds to Inf,
			// holds there across a zero code and comes back down; the
			// subnormal segment before it and the one after stay in range.
			name: "crossing 65520 and back mid-segment", expBits: 3,
			segs: []rawSeg{
				{f(-2.5e-6), 107, []byte{0x08, 0, 0x88}},        // +-1.5*2^-20
				{f(65504), 130, []byte{0, 0x10, 0, 0x90, 0x90}}, // +-16
				{f(3), 0, nil},
			},
			want: []fp16.Bits{
				0x802A, 0x8012, 0x8012, 0x802A,
				0x7BFF, 0x7BFF, 0x7C00, 0x7C00, 0x7BFF, 0x7BFE,
				0x4200,
			},
		},
		{
			// At base 255 a nonzero mantissa makes the delta a NaN. The
			// first NaN delta replaces the finite running value; from then
			// on the running value's NaN wins over NaN deltas of either
			// sign, and a NaN pivot likewise keeps its own sign and payload.
			name: "NaN deltas meet a NaN running value", expBits: 1,
			segs: []rawSeg{
				{f(1), 255, []byte{0x01, 0x81, 0x02, 0xC3, 0}},
				{0xFFC24000, 255, []byte{0x05, 0x81, 0}},
			},
			want: []fp16.Bits{
				0x3C00, 0x7E10, 0x7E10, 0x7E10, 0x7E10, 0x7E10,
				0xFE12, 0xFE12, 0xFE12, 0xFE12,
			},
		},
		wideCase(),
	}, guardCases()...)
}()

// wideCase is a line of 1224 values, wider than the decoder's FP32 block
// (lineBlock = 512): the first block ends exactly at a segment's end, the
// second inside a segment, and the segments alternate between the scaled
// kernel and the bit-formula one (bases 0 and 250). Codes come from a fixed
// multiplicative sequence, one in eight a zero code.
func wideCase() kernelCase {
	tc := kernelCase{name: "wider than one block", expBits: 3}
	x := uint32(7)
	for i, n := range []int{256, 256, 200, 256, 256} {
		codes := make([]byte, n-1)
		for k := range codes {
			x = x*2654435761 + 12345
			if x>>29 != 0 {
				codes[k] = byte(x >> 21)
			}
		}
		base := []uint8{120, 0, 125, 250, 118}[i]
		tc.segs = append(tc.segs, rawSeg{math.Float32bits(float32(i+1) * 0.75), base, codes})
	}
	return tc
}

// guardCases pin both sides of the scaled kernel's guard (scaledBase):
// exponent bases 0, 1, 254-maxOffset, 255-maxOffset and 255 at three field
// widths, maxOffset = 2^expBits - 1. From a +0 pivot each segment takes a
// zero code, the smallest codes of both signs (cancelling to +0), the
// largest offset of both signs, and last a negative delta: at the low bases
// every value underflows FP16, but the last one's sign still shows, as -0.
// From base 254-maxOffset up some delta reaches 2^127 or spills past the
// exponent field.
func guardCases() []kernelCase {
	var cases []kernelCase
	for _, expBits := range []int{1, 3, 6} {
		mantBits := 7 - expBits
		maxOff := 1<<expBits - 1
		top := byte(maxOff<<mantBits | 1) // largest offset, mantissa 1
		codes := []byte{0, 0x01, 0x81, top, top | 0x80, 0x81}
		for _, e := range []int{0, 1, 254 - maxOff, 255 - maxOff, 255} {
			tc := kernelCase{
				name:    fmt.Sprintf("exponent base %d, %d-bit offsets", e, expBits),
				expBits: expBits,
				segs:    []rawSeg{{0, uint8(e), codes}},
			}
			if e <= 1 {
				tc.want = []fp16.Bits{0, 0, 0, 0, 0, 0, 0x8000}
			}
			cases = append(cases, tc)
		}
	}
	return cases
}

// decodeBoth decodes blob with Format() and FormatHWC() and compares every
// value with ref. On a [1,1,W] blob the two layouts coincide.
func decodeBoth(t *testing.T, name string, blob []byte, ref []fp16.Bits) {
	t.Helper()
	for _, fm := range []codec.Format{Format(), FormatHWC()} {
		cd, err := fm.Open(blob)
		if err != nil {
			t.Fatalf("%s (%s): %v", name, fm.Name(), err)
		}
		out, err := codec.Decode(cd)
		if err != nil {
			t.Fatalf("%s (%s): %v", name, fm.Name(), err)
		}
		if len(out.F16s) != len(ref) {
			t.Fatalf("%s (%s): decoded %d values, reference %d", name, fm.Name(), len(out.F16s), len(ref))
		}
		for i := range ref {
			if out.F16s[i] != ref[i] {
				t.Errorf("%s (%s): value %d = %#04x, reference %#04x", name, fm.Name(), i, out.F16s[i], ref[i])
			}
		}
	}
}

func TestDeltaKernelPinnedCases(t *testing.T) {
	for _, tc := range pinnedCases {
		blob, w := deltaBlob(tc.expBits, tc.segs)
		ref := refDecode(tc.expBits, tc.segs)
		if len(ref) != w {
			t.Fatalf("%s: reference decoded %d values, want %d", tc.name, len(ref), w)
		}
		if tc.want != nil {
			for i := range tc.want {
				if ref[i] != tc.want[i] {
					t.Fatalf("%s: reference gives %#04x at %d, pinned %#04x", tc.name, ref[i], i, tc.want[i])
				}
			}
		}
		decodeBoth(t, tc.name, blob, ref)
	}
}

// TestUnitDeltaExact checks the scaled kernel's premise exhaustively and
// its guard for tightness: for every field width and exponent base,
// scaledBase admits the base iff unitDelta[mantBits][b] * 2^(e-127) is, for
// every code b, bit for bit the delta deltaSegment's shift-and-or formula
// builds at base e (-0 for code 0).
func TestUnitDeltaExact(t *testing.T) {
	for expBits := 1; expBits <= 6; expBits++ {
		mantBits := 7 - expBits
		shift := uint(23 - mantBits)
		maxOff := uint32(1)<<expBits - 1
		for e := uint32(0); e < 256; e++ {
			scale := math.Float32frombits(e << 23)
			exact := true
			for b := 0; b < 256; b++ {
				want := uint32(b&0x80)<<24 | (e<<23 + uint32(b&0x7F)<<shift)
				if b == 0 {
					want = 0x80000000
				}
				exact = exact && math.Float32bits(float32(unitDelta[mantBits][b]*scale)) == want
			}
			if exact != scaledBase(e, maxOff) {
				t.Errorf("expBits %d, base %d: every scaled delta exact: %v, scaledBase: %v", expBits, e, exact, !exact)
			}
		}
	}
}

// kernelFuzzBytes is the inverse of segsFromFuzz, for seeding.
func kernelFuzzBytes(segs []rawSeg) []byte {
	var data []byte
	for _, s := range segs {
		data = binary.LittleEndian.AppendUint32(data, s.pivot)
		data = append(data, s.minExp, byte(len(s.codes)))
		data = append(data, s.codes...)
	}
	return data
}

// segsFromFuzz cuts fuzzer bytes into DELTA segments: a 4-byte pivot, the
// exponent base, a code count, then that many codes (fewer at the end).
func segsFromFuzz(data []byte) []rawSeg {
	var segs []rawSeg
	for len(data) >= 6 {
		n := min(int(data[5]), len(data)-6)
		segs = append(segs, rawSeg{binary.LittleEndian.Uint32(data), data[4], data[6 : 6+n]})
		data = data[6+n:]
	}
	return segs
}

// FuzzDeltaKernel decodes fuzzed DELTA lines — any pivots, exponent bases,
// codes and field widths — with both deltafp formats and requires every
// value to match refDecode bit for bit.
func FuzzDeltaKernel(f *testing.F) {
	for _, tc := range pinnedCases {
		f.Add(uint8(tc.expBits), kernelFuzzBytes(tc.segs))
	}
	f.Fuzz(func(t *testing.T, e uint8, data []byte) {
		expBits := 1 + int(e)%6
		segs := segsFromFuzz(data)
		if len(segs) == 0 || len(data) > math.MaxUint16 { // W and the segment count are uint16
			return
		}
		blob, _ := deltaBlob(expBits, segs)
		decodeBoth(t, "fuzzed line", blob, refDecode(expBits, segs))
	})
}
