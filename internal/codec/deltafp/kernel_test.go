package deltafp

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/tensor"
)

// rawSeg is one hand-built DELTA segment: the pivot's FP32 bits, the
// exponent base, and the code bytes that follow it.
type rawSeg struct {
	pivot  uint32
	minExp uint8
	codes  []byte
}

// deltaLine frames segs as one DELTA line and returns it with its width.
func deltaLine(segs []rawSeg) (line []byte, w int) {
	line = []byte{modeDelta}
	line = binary.LittleEndian.AppendUint16(line, uint16(len(segs)))
	for _, s := range segs {
		line = binary.LittleEndian.AppendUint32(line, s.pivot)
		line = append(line, s.minExp)
		line = binary.LittleEndian.AppendUint16(line, uint16(len(s.codes)+1))
		line = append(line, s.codes...)
		w += len(s.codes) + 1
	}
	return line, w
}

// frameBlob frames lines, each w values wide, as a [len(lines),1,w]
// deltafp blob: one line per channel, so that FormatHWC's layout, [1,w,C],
// interleaves the lines.
func frameBlob(expBits, w int, lines [][]byte) (blob []byte) {
	for _, v := range []uint32{blobMagic, uint32(len(lines)), 1, uint32(w), uint32(expBits)} {
		blob = binary.LittleEndian.AppendUint32(blob, v)
	}
	off := 0
	blob = binary.LittleEndian.AppendUint32(blob, 0)
	for _, l := range lines {
		off += len(l)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(off))
	}
	for _, l := range lines {
		blob = append(blob, l...)
	}
	return blob
}

// deltaBlob frames segs as a one-line [1,1,W] deltafp blob.
func deltaBlob(expBits int, segs []rawSeg) (blob []byte, w int) {
	line, w := deltaLine(segs)
	return frameBlob(expBits, w, [][]byte{line}), w
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

// decodeBoth decodes a frameBlob blob with Format() and FormatHWC() and
// compares every value with ref, the blob's lines one after another: value
// x of line l lies at l*W+x in CHW and at x*C+l in HWC.
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
		hwc := fm.Name() != "deltafp"
		lines := cd.OutputShape()[0] // C of [C,1,W]
		if hwc {
			lines = cd.OutputShape()[2] // C of [1,W,C]
		}
		w := len(ref) / lines
		for l := range lines {
			for x := range w {
				i := l*w + x
				if hwc {
					i = x*lines + l
				}
				if got, want := out.F16s[i], ref[l*w+x]; got != want {
					t.Errorf("%s (%s): line %d value %d = %#04x, reference %#04x", name, fm.Name(), l, x, got, want)
				}
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

// fitSegs cuts segs, or extends the last one with codes from fill, so that
// they decode to exactly w values.
func fitSegs(segs []rawSeg, w int, fill []byte) []rawSeg {
	var out []rawSeg
	for _, sg := range segs {
		if w == 0 {
			break
		}
		sg.codes = sg.codes[:min(len(sg.codes), w-1)]
		out = append(out, sg)
		w -= len(sg.codes) + 1
	}
	if w > 0 {
		if len(out) == 0 {
			out = append(out, rawSeg{pivot: 0x3F800000, minExp: 120})
			w--
		}
		last := &out[len(out)-1]
		codes := append([]byte(nil), last.codes...)
		for k := 0; k < w; k++ {
			codes = append(codes, fill[k%len(fill)])
		}
		last.codes = codes
	}
	return out
}

// linesFromFuzz cuts h DELTA lines of one width from data. The first line
// is segsFromFuzz(data) and sets the width; line i cuts the same bytes
// rotated by i*len(data)/h, fitted to the width, so that every line of a
// group has its own segment boundaries.
func linesFromFuzz(h int, data []byte) [][]rawSeg {
	first := segsFromFuzz(data)
	if len(first) == 0 {
		return nil
	}
	w := 0
	for _, sg := range first {
		w += len(sg.codes) + 1
	}
	lines := [][]rawSeg{first}
	for i := 1; i < h; i++ {
		k := i * len(data) / h
		rot := append(append([]byte(nil), data[k:]...), data[:k]...)
		lines = append(lines, fitSegs(segsFromFuzz(rot), w, data))
	}
	return lines
}

// FuzzDeltaKernel decodes fuzzed groups of DELTA lines — 1 to 17 lines,
// so that the last group of eight may be partial, each with its own
// segment boundaries, and any pivots, exponent bases, codes and field
// widths — with both deltafp formats and requires every value to match
// refDecode bit for bit.
func FuzzDeltaKernel(f *testing.F) {
	for _, tc := range pinnedCases {
		f.Add(uint8(tc.expBits), uint8(0), kernelFuzzBytes(tc.segs))
		f.Add(uint8(tc.expBits), uint8(8), kernelFuzzBytes(tc.segs))
	}
	for _, gc := range groupCases() {
		f.Add(uint8(gc.expBits), uint8(len(gc.lines)-1), kernelFuzzBytes(gc.lines[0].segs))
	}
	f.Fuzz(func(t *testing.T, e, h uint8, data []byte) {
		expBits := 1 + int(e)%6
		if len(data) > math.MaxUint16 { // W and the segment count are uint16
			return
		}
		lines := linesFromFuzz(1+int(h)%17, data)
		if lines == nil || len(lines)*len(data) > 1<<16 { // keep an execution to milliseconds
			return
		}
		tls := make([]testLine, len(lines))
		for i, segs := range lines {
			tls[i] = deltaTestLine(expBits, segs)
		}
		blob, ref := groupBlob(expBits, tls)
		decodeBoth(t, "fuzzed group", blob, ref)
	})
}

// testLine is one framed line of a hand-built blob and the values the
// format defines for it.
type testLine struct {
	segs  []rawSeg // a DELTA line's segments; nil for RAW and CONST
	frame []byte
	ref   []fp16.Bits
}

func deltaTestLine(expBits int, segs []rawSeg) testLine {
	frame, _ := deltaLine(segs)
	return testLine{segs: segs, frame: frame, ref: refDecode(expBits, segs)}
}

func rawTestLine(vals []float32) testLine {
	tl := testLine{frame: tensor.AppendLE([]byte{modeRaw}, vals)}
	for _, v := range vals {
		tl.ref = append(tl.ref, fp16.FromFloat32(v))
	}
	return tl
}

func constTestLine(v float32, w int) testLine {
	tl := testLine{frame: binary.LittleEndian.AppendUint32([]byte{modeConst}, math.Float32bits(v))}
	for range w {
		tl.ref = append(tl.ref, fp16.FromFloat32(v))
	}
	return tl
}

// groupBlob frames lines as one blob (frameBlob) and returns it with the
// reference values of all lines, one line after another.
func groupBlob(expBits int, lines []testLine) (blob []byte, ref []fp16.Bits) {
	frames := make([][]byte, len(lines))
	for i, tl := range lines {
		frames[i] = tl.frame
		ref = append(ref, tl.ref...)
	}
	return frameBlob(expBits, len(lines[0].ref), frames), ref
}

// groupCase is a hand-built blob of several lines: groups of eight that
// the lane kernel decodes in lockstep.
type groupCase struct {
	name    string
	expBits int
	lines   []testLine
}

// laneCodes returns n code bytes from a fixed multiplicative sequence
// seeded by seed, one in eight a zero code.
func laneCodes(seed uint32, n int) []byte {
	codes := make([]byte, n)
	x := seed
	for k := range codes {
		x = x*2654435761 + 12345
		if x>>29 != 0 {
			codes[k] = byte(x >> 21)
		}
	}
	return codes
}

// laneSegs cuts a line into segments of the given lengths (pivot included)
// with pivots and exponent bases taken in turn from pivots and bases.
func laneSegs(seed uint32, lens []int, pivots []uint32, bases []uint8) []rawSeg {
	segs := make([]rawSeg, len(lens))
	for i, n := range lens {
		segs[i] = rawSeg{pivots[i%len(pivots)], bases[i%len(bases)], laneCodes(seed+uint32(i), n-1)}
	}
	return segs
}

// repeat returns n copies of v.
func repeat(v, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// groupCases are the lane kernel's edge cases: every lane with its own
// segment boundaries, RAW and CONST lines among DELTA lines, a NaN pivot
// in one lane only, and lines wider than one column block (laneBlock) in
// a blob whose last group is partial.
func groupCases() []groupCase {
	f := math.Float32bits
	pivots := []uint32{f(1.5), f(-20), 0x80000000, f(3e-5), f(1000)}
	bases := []uint8{120, 118, 250, 0, 125, 255, 1}
	layouts := [][]int{
		{48},
		{1, 47},
		{47, 1},
		repeat(8, 6),
		append(repeat(1, 8), 40),
		{3, 5, 7, 11, 13, 9},
		{24, 24},
		repeat(2, 24),
	}
	var boundaries, mixed, nan []testLine
	for i, lens := range layouts {
		segs := laneSegs(uint32(7*i+1), lens, pivots[i%len(pivots):], bases[i%len(bases):])
		boundaries = append(boundaries, deltaTestLine(3, segs))
		switch i {
		case 1:
			vals := make([]float32, 48)
			for x := range vals {
				vals[x] = float32(x*x) - 700
			}
			mixed = append(mixed, rawTestLine(vals))
		case 4:
			mixed = append(mixed, constTestLine(-2.75, 48))
		default:
			mixed = append(mixed, deltaTestLine(3, segs))
		}
		switch i {
		case 2: // a quiet NaN pivot, carried through its segment
			segs = append([]rawSeg{{0x7FC01234, 120, laneCodes(99, 20)}}, fitSegs(segs, 27, []byte{0x11})...)
		case 5: // a signaling NaN pivot, of either sign
			segs = append([]rawSeg{{0xFF800123, 255, laneCodes(98, 9)}, {0x7F800001, 120, laneCodes(97, 9)}}, fitSegs(segs, 28, []byte{0x93})...)
		}
		nan = append(nan, deltaTestLine(3, segs))
	}
	var wide []testLine
	for i := range 11 {
		lens := []int{100 + 37*i, 333 - 20*i, 1, 266 - 17*i}
		wide = append(wide, deltaTestLine(3, laneSegs(uint32(i), lens, pivots[i%len(pivots):], bases[i%len(bases):])))
	}
	return []groupCase{
		{"eight lanes, eight boundary layouts", 3, boundaries},
		{"RAW and CONST lines in a DELTA group", 3, mixed},
		{"a NaN pivot in one lane only", 3, nan},
		{"wider than one column block, last group partial", 3, wide},
	}
}

// TestDeltaKernelGroups decodes the group cases and compares each line
// with its reference, in both layouts.
func TestDeltaKernelGroups(t *testing.T) {
	for _, gc := range groupCases() {
		for _, tl := range gc.lines {
			if len(tl.ref) != len(gc.lines[0].ref) {
				t.Fatalf("%s: lines of %d and %d values", gc.name, len(tl.ref), len(gc.lines[0].ref))
			}
		}
		blob, ref := groupBlob(gc.expBits, gc.lines)
		decodeBoth(t, gc.name, blob, ref)
		if !useLanes {
			continue
		}
		cd, err := Format().Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		// Every DELTA line of the first group but the blob's last (whose
		// codes end too close to the payload's) takes the lane kernel.
		for l := range min(laneCount, len(gc.lines)-1) {
			if got, want := cd.(*Decoder).laneReady(l), gc.lines[l].segs != nil; got != want {
				t.Errorf("%s: line %d takes the lane kernel: %v, want %v", gc.name, l, got, want)
			}
		}
	}
}

// TestDeltaKernelGroupFraming breaks one line of a lane group's framing in
// each way decodeDeltaLine rejects, and requires both formats to fail the
// chunk: the lane kernel's checks in the normal build, decodeLine's under
// purego.
func TestDeltaKernelGroupFraming(t *testing.T) {
	gc := groupCases()[0]
	// Line 3 is six segments of 8 values: header k at 3 + 14k.
	breaks := []struct {
		name string
		edit func(line []byte) []byte
	}{
		{"zero count", func(l []byte) []byte { binary.LittleEndian.PutUint16(l[3+14*2+5:], 0); return l }},
		{"count past the line's bytes", func(l []byte) []byte { binary.LittleEndian.PutUint16(l[3+14*5+5:], 9); return l }},
		{"count past the line's values", func(l []byte) []byte {
			binary.LittleEndian.PutUint16(l[3+14*4+5:], 9)
			return append(l[:3+14*5], 0, 0, 0, 0, 120, 1, 0)
		}},
		{"segment missing", func(l []byte) []byte { return l[:3+14*5] }},
		{"one segment more than declared", func(l []byte) []byte { binary.LittleEndian.PutUint16(l[1:], 5); return l }},
		{"one segment fewer than declared", func(l []byte) []byte { binary.LittleEndian.PutUint16(l[1:], 7); return l }},
		{"truncated header", func(l []byte) []byte { binary.LittleEndian.PutUint16(l[1:], 7); return append(l, 1, 2, 3) }},
		{"trailing byte", func(l []byte) []byte { return append(l, 0) }},
	}
	for _, br := range breaks {
		frames := make([][]byte, len(gc.lines))
		for i, tl := range gc.lines {
			frames[i] = append([]byte(nil), tl.frame...)
		}
		frames[3] = br.edit(frames[3])
		blob := frameBlob(gc.expBits, len(gc.lines[0].ref), frames)
		for _, fm := range []codec.Format{Format(), FormatHWC()} {
			cd, err := fm.Open(blob)
			if err != nil {
				t.Fatalf("%s (%s): %v", br.name, fm.Name(), err)
			}
			if _, err := codec.Decode(cd); err == nil {
				t.Errorf("%s (%s): decoded", br.name, fm.Name())
			}
		}
	}
}

// BenchmarkDecodeLanes measures the lane penalty: the cost of a group
// whose eight lines end their segments in different columns over one whose
// lines share their boundaries. Both blobs are [4,64,288] of DELTA lines
// cut into the same nine segment lengths; "aligned" takes them in one
// order on every line, "mixed" rotates the order by the line's index, so
// every lane of a group starts its segments elsewhere. On a GPU, §VI's
// warps diverge on the mixed blob (gpusim charges hierDivergencePenalty);
// the lane kernel turns the boundaries into blends.
func BenchmarkDecodeLanes(b *testing.B) {
	lens := []int{1, 2, 5, 8, 13, 21, 34, 55, 149}
	f := math.Float32bits
	pivots := []uint32{f(1.5), f(-20), f(3e-5), f(1000)}
	for _, mixed := range []bool{false, true} {
		lines := make([][]byte, 4*64)
		for l := range lines {
			order := lens
			if mixed {
				k := l % len(lens)
				order = append(append([]int(nil), lens[k:]...), lens[:k]...)
			}
			lines[l], _ = deltaLine(laneSegs(uint32(l), order, pivots, []uint8{120, 118, 125}))
		}
		blob := frameBlob(3, 288, lines)
		name := "aligned"
		if mixed {
			name = "mixed"
		}
		b.Run(name, func(b *testing.B) {
			cd, err := Format().Open(blob)
			if err != nil {
				b.Fatal(err)
			}
			dst := tensor.New(tensor.F16, cd.OutputShape()...)
			b.SetBytes(int64(dst.Bytes()))
			for i := 0; i < b.N; i++ {
				if err := codec.DecodeInto(cd, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
