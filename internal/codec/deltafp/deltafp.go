// Package deltafp implements the paper's DeepCAM differential floating-point
// encoding (§V-A, Fig 4).
//
// A sample is a [C, H, W] FP32 stack. Each line (one row of one channel) is
// encoded independently — the per-line metadata is what "enables independent
// decoding of lines, thus enabling efficient execution on accelerator
// architectures". A line is stored in whichever of three modes is smallest:
//
//   - CONST: all neighboring values are similar; store the head value once.
//   - DELTA: a sequence of segments. Each segment stores an exact FP32 pivot
//     (the head value), the minimum exponent of the segment's deltas, and one
//     byte per following value: [sign:1][exponent-offset:expBits][mantissa:mantBits]
//     with expBits+mantBits = 7. The exponent offset is relative to the
//     segment's minimum exponent — the paper's "exponent of these differences
//     is clustered into groups of close values". Byte 0x00 encodes an exact
//     zero delta.
//   - RAW: lines with abrupt transitions or too many segments are kept
//     uncompressed "because they potentially carry interesting climate
//     phenomena".
//
// The encoder quantizes each delta against the *reconstructed* previous
// value (mirroring decoder state), so quantization error does not accumulate
// along a segment. Decoding computes in FP32 and emits FP16 — the slightly
// lossy path whose error distribution §V-A quantifies.
package deltafp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/tensor"
)

// Line modes.
const (
	modeRaw   = 0
	modeConst = 1
	modeDelta = 2
)

const blobMagic = 0x44465043 // "DFPC"

// Options tune the encoder.
type Options struct {
	// ExpBits is the width of the per-delta exponent-offset field;
	// MantBits = 7 - ExpBits. 0 takes the paper's 3 (3 exponent bits, 4
	// mantissa bits, 1 sign bit per delta).
	ExpBits int
}

// The encoder's fixed segmentation tolerances.
const (
	// maxSegFrac caps DELTA segments at W*maxSegFrac before falling back
	// to RAW (abrupt lines).
	maxSegFrac = 1.0 / 8
	// relTol closes a segment (resetting to an exact pivot) when a single
	// delta's quantization error exceeds relTol of the value magnitude.
	relTol = 0.05
	// constTol declares a line CONST when every neighbor delta is below
	// constTol relative to the line's magnitude.
	constTol = 1e-7
)

func (o Options) withDefaults() Options {
	if o.ExpBits == 0 {
		o.ExpBits = 3
	}
	return o
}

func (o Options) validate() error {
	if o.ExpBits < 1 || o.ExpBits > 6 {
		return fmt.Errorf("deltafp: ExpBits %d out of [1,6]", o.ExpBits)
	}
	return nil
}

// Encode compresses a [C, H, W] FP32 tensor into a deltafp blob.
func Encode(t *tensor.Tensor, opts Options) ([]byte, error) {
	if t.DT != tensor.F32 || len(t.Shape) != 3 {
		return nil, fmt.Errorf("deltafp: need rank-3 F32 tensor, got %v %v", t.DT, t.Shape)
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	c, h, w := t.Shape[0], t.Shape[1], t.Shape[2]
	if w == 0 || h == 0 || c == 0 {
		return nil, errors.New("deltafp: empty tensor")
	}
	if w > math.MaxUint16 {
		return nil, fmt.Errorf("deltafp: line width %d exceeds uint16 segment counters", w)
	}
	nLines := c * h

	// Header: magic, C, H, W, expBits. Then line offset table, then payload.
	var payload []byte
	offsets := make([]uint32, nLines+1)
	enc := lineEncoder{opts: opts, mantBits: 7 - opts.ExpBits}
	for l := 0; l < nLines; l++ {
		line := t.F32s[l*w : (l+1)*w]
		payload = enc.encodeLine(line, payload)
		offsets[l+1] = uint32(len(payload))
	}

	headerLen := 4 * 5
	blob := make([]byte, headerLen+4*(nLines+1)+len(payload))
	binary.LittleEndian.PutUint32(blob[0:], blobMagic)
	binary.LittleEndian.PutUint32(blob[4:], uint32(c))
	binary.LittleEndian.PutUint32(blob[8:], uint32(h))
	binary.LittleEndian.PutUint32(blob[12:], uint32(w))
	binary.LittleEndian.PutUint32(blob[16:], uint32(opts.ExpBits))
	for i, off := range offsets {
		binary.LittleEndian.PutUint32(blob[headerLen+4*i:], off)
	}
	copy(blob[headerLen+4*(nLines+1):], payload)
	return blob, nil
}

type lineEncoder struct {
	opts     Options
	mantBits int
}

type deltaCode struct {
	sign byte  // 0 or 1
	exp  uint8 // raw IEEE-754 FP32 exponent bits
	mant uint8 // top mantBits of the mantissa, after rounding
	zero bool  // exact zero delta
}

// dequant reconstructs the FP32 delta a code represents.
func dequant(d deltaCode, mantBits int) float32 {
	if d.zero {
		return 0
	}
	shift := uint(23 - mantBits)
	bits := uint32(d.sign)<<31 | uint32(d.exp)<<23 | uint32(d.mant)<<shift
	return math.Float32frombits(bits)
}

// encodeLine appends the cheapest encoding of line to payload.
func (e *lineEncoder) encodeLine(line []float32, payload []byte) []byte {
	w := len(line)

	// Reject non-finite content outright: RAW preserves it bit-exactly.
	maxAbs := float64(0)
	finite := true
	for _, v := range line {
		av := math.Abs(float64(v))
		if math.IsNaN(av) || math.IsInf(av, 0) {
			finite = false
			break
		}
		if av > maxAbs {
			maxAbs = av
		}
	}
	if !finite {
		return appendRaw(payload, line)
	}

	// CONST check: every neighbor delta below tolerance.
	isConst := true
	tol := constTol * maxAbs
	for i := 1; i < w; i++ {
		if math.Abs(float64(line[i]-line[i-1])) > tol {
			isConst = false
			break
		}
	}
	if isConst {
		payload = append(payload, modeConst)
		return binary.LittleEndian.AppendUint32(payload, math.Float32bits(line[0]))
	}

	segs, ok := e.buildSegments(line)
	if !ok {
		return appendRaw(payload, line)
	}
	// Size comparison: take DELTA only if it beats RAW.
	deltaSize := 3
	for _, s := range segs {
		deltaSize += 7 + len(s.codes)
	}
	if deltaSize >= 1+4*w {
		return appendRaw(payload, line)
	}

	payload = append(payload, modeDelta)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(segs)))
	for _, s := range segs {
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(s.pivot))
		payload = append(payload, s.minExp)
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(s.codes)+1))
		for _, d := range s.codes {
			payload = append(payload, e.packDelta(d, s.minExp))
		}
	}
	return payload
}

func appendRaw(payload []byte, line []float32) []byte {
	return tensor.AppendLE(append(payload, modeRaw), line)
}

func (e *lineEncoder) packDelta(d deltaCode, minExp uint8) byte {
	if d.zero {
		return 0
	}
	off := d.exp - minExp
	b := d.sign<<7 | off<<uint(e.mantBits) | d.mant
	if b == 0 {
		// Would collide with the reserved exact-zero byte; bump the mantissa
		// by one step (a 2^-mantBits relative perturbation of the delta).
		b = 1
	}
	return b
}

type segment struct {
	pivot  float32
	minExp uint8
	codes  []deltaCode
}

// buildSegments performs the greedy segmentation of Fig 4. It returns
// (nil, false) when the line is too abrupt (segment budget exceeded or
// non-encodable deltas).
func (e *lineEncoder) buildSegments(line []float32) ([]segment, bool) {
	w := len(line)
	maxSegs := int(float64(w) * maxSegFrac)
	if maxSegs < 1 {
		maxSegs = 1
	}
	window := uint8(1<<uint(e.opts.ExpBits) - 1)
	mantBits := e.mantBits
	shift := uint(23 - mantBits)
	roundBit := uint32(1) << (shift - 1)
	mantMax := uint8(1<<uint(mantBits) - 1)

	var segs []segment
	i := 0
	for i < w {
		seg := segment{pivot: line[i]}
		recon := line[i]
		var minE, maxE uint8
		haveExp := false
		j := i + 1
		for j < w {
			d := float64(line[j]) - float64(recon)
			if d == 0 {
				seg.codes = append(seg.codes, deltaCode{zero: true})
				j++
				continue
			}
			bits := math.Float32bits(float32(math.Abs(d)))
			exp := uint8(bits >> 23)
			mant := uint8((bits >> shift) & uint32(mantMax))
			if bits&roundBit != 0 {
				if mant == mantMax {
					mant = 0
					if exp == 0xFE {
						break // rounding into Inf: start a new pivot
					}
					exp++
				} else {
					mant++
				}
			}
			if exp == 0 {
				// FP32-denormal delta: indistinguishable from zero at any
				// realistic data scale.
				seg.codes = append(seg.codes, deltaCode{zero: true})
				j++
				continue
			}
			if exp == 0xFF {
				break // delta overflowed: isolate with a fresh pivot
			}
			if d > 0 && mant == 0 {
				// A positive delta with zero mantissa could pack to the
				// reserved zero byte (when exp lands on the segment minimum).
				// Bump the mantissa one step *before* mirroring the decoder,
				// so encoder and decoder reconstructions stay identical; the
				// quality guard below sees the bumped value.
				mant = 1
			}
			nMin, nMax := minE, maxE
			if !haveExp {
				nMin, nMax = exp, exp
			} else {
				if exp < nMin {
					nMin = exp
				}
				if exp > nMax {
					nMax = exp
				}
			}
			if nMax-nMin > window {
				break // exponent group exhausted: close the segment
			}
			code := deltaCode{exp: exp, mant: mant}
			if d < 0 {
				code.sign = 1
			}
			qd := dequant(code, mantBits)
			// Quality guard: a single-step quantization error beyond relTol
			// of the value magnitude forces an exact pivot reset.
			if qErr := math.Abs(float64(qd) - d); qErr > relTol*math.Abs(float64(line[j]))+1e-12 {
				break
			}
			minE, maxE, haveExp = nMin, nMax, true
			seg.codes = append(seg.codes, code)
			recon += qd
			j++
		}
		seg.minExp = minE
		if !haveExp {
			seg.minExp = 0
		}
		segs = append(segs, seg)
		if len(segs) > maxSegs {
			return nil, false
		}
		i = j
	}
	return segs, true
}

// format implements codec.Format for deltafp blobs.
type format struct{}

// Format returns the codec.Format for deltafp blobs.
func Format() codec.Format { return format{} }

func (format) Name() string { return "deltafp" }

// Open implements codec.Format: it validates the header, the offset table
// and every line's framing.
//
//scipp:hotpath
func (format) Open(blob []byte) (codec.ChunkDecoder, error) {
	const headerLen = 20
	if len(blob) < headerLen {
		return nil, errors.New("deltafp: blob too short")
	}
	if binary.LittleEndian.Uint32(blob[0:]) != blobMagic {
		return nil, errors.New("deltafp: bad magic")
	}
	c := int(binary.LittleEndian.Uint32(blob[4:]))
	h := int(binary.LittleEndian.Uint32(blob[8:]))
	w := int(binary.LittleEndian.Uint32(blob[12:]))
	expBits := int(binary.LittleEndian.Uint32(blob[16:]))
	if c <= 0 || h <= 0 || w <= 0 || expBits < 1 || expBits > 6 {
		return nil, fmt.Errorf("deltafp: invalid header C=%d H=%d W=%d expBits=%d", c, h, w, expBits)
	}
	if w > math.MaxUint16 {
		return nil, fmt.Errorf("deltafp: line width %d exceeds format limit", w)
	}
	// The offset table holds one 4-byte entry per line plus one, so the blob
	// length bounds C*H — and with it the allocations below and the decoded
	// size (at most 2*w/4 bytes per blob byte). The bound divides rather than
	// multiplies: a hostile C*H overflows the product.
	if maxLines := (len(blob)-headerLen)/4 - 1; h > maxLines || c > maxLines/h {
		return nil, fmt.Errorf("deltafp: truncated offset table: header claims %dx%d lines, a %d-byte blob holds at most %d",
			c, h, len(blob), maxLines)
	}
	nLines := c * h
	need := headerLen + 4*(nLines+1)
	d := getDecoder(nLines + 1)
	offsets := d.offsets
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint32(blob[headerLen+4*i:])
	}
	payload := blob[need:]
	if int(offsets[nLines]) != len(payload) {
		d.Recycle()
		return nil, errors.New("deltafp: payload length mismatch")
	}
	for i := 0; i < nLines; i++ {
		if offsets[i] > offsets[i+1] {
			d.Recycle()
			return nil, errors.New("deltafp: non-monotonic offsets")
		}
	}
	d.c, d.h, d.w = c, h, w
	d.shape = [3]int{c, h, w}
	d.mantBits = 7 - expBits
	d.unit = unitDelta[d.mantBits][:]
	d.payload = payload
	d.blobLen = len(blob)
	if err := d.profile(); err != nil {
		d.Recycle()
		return nil, err
	}
	return d, nil
}

// decoderPool recycles Decoder structs — and, through them, their offset
// tables — between samples: the pipeline's decode stage hands finished
// decoders back via codec.Recycle, so the per-sample Open cost on the hot
// path is parsing, not heap allocation.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// getDecoder returns a zeroed Decoder whose offsets table has room for n
// entries, reusing a recycled one when available.
func getDecoder(n int) *Decoder {
	d := decoderPool.Get().(*Decoder)
	offsets := d.offsets
	if cap(offsets) < n {
		//lint:ignore hotalloc pool miss: a recycled decoder keeps its offsets table
		offsets = make([]uint32, n)
	}
	*d = Decoder{offsets: offsets[:n]}
	return d
}

// Recycle implements codec.Recycler: it drops the decoder's blob references
// and returns it (with its offsets table) to the pool. The decoder must not
// be used afterwards.
func (d *Decoder) Recycle() {
	offsets := d.offsets
	*d = Decoder{offsets: offsets[:0]}
	decoderPool.Put(d)
}

// Decoder decodes a deltafp blob line by line. Lines are independent, so
// DecodeChunk may be called concurrently on distinct chunks.
type Decoder struct {
	c, h, w  int
	shape    [3]int // [C, H, W], backing OutputShape
	mantBits int
	unit     []float32 // unitDelta[mantBits], 256 entries
	offsets  []uint32
	payload  []byte
	blobLen  int

	nRaw, nConst, nDelta int
}

// profile scans line modes once for the workload report and validates every
// line's framing.
func (d *Decoder) profile() error {
	for l := 0; l < d.c*d.h; l++ {
		line := d.payload[d.offsets[l]:d.offsets[l+1]]
		if len(line) == 0 {
			return fmt.Errorf("deltafp: empty line %d", l)
		}
		switch line[0] {
		case modeRaw:
			if len(line) != 1+4*d.w {
				return fmt.Errorf("deltafp: raw line %d has %d bytes", l, len(line))
			}
			d.nRaw++
		case modeConst:
			if len(line) != 5 {
				return fmt.Errorf("deltafp: const line %d has %d bytes", l, len(line))
			}
			d.nConst++
		case modeDelta:
			// Mode byte plus the uint16 segment count decodeDeltaLine reads
			// unconditionally.
			if len(line) < 3 {
				return fmt.Errorf("deltafp: delta line %d has %d bytes", l, len(line))
			}
			d.nDelta++
		default:
			return fmt.Errorf("deltafp: line %d has unknown mode %d", l, line[0])
		}
	}
	return nil
}

// OutputShape implements codec.ChunkDecoder.
func (d *Decoder) OutputShape() tensor.Shape { return d.shape[:] }

// OutputDType implements codec.ChunkDecoder: the plugin emits FP16.
func (d *Decoder) OutputDType() tensor.DType { return tensor.F16 }

// NumChunks implements codec.ChunkDecoder: one chunk per group of eight
// lines (the last group may be shorter).
func (d *Decoder) NumChunks() int { return (d.c*d.h + laneCount - 1) / laneCount }

// Workload implements codec.ChunkDecoder.
func (d *Decoder) Workload() codec.Workload {
	n := d.c * d.h * d.w
	return codec.Workload{
		BytesIn:   d.blobLen,
		BytesOut:  2 * n,
		Ops:       3 * n, // delta add + FP16 convert + store per value
		Chunks:    d.c * d.h,
		Divergent: d.nDelta,
	}
}

// DecodeChunk implements codec.ChunkDecoder, decoding the lines of group
// chunk into dst.
//
//scipp:hotpath
func (d *Decoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	if chunk < 0 || chunk >= d.NumChunks() {
		return fmt.Errorf("deltafp: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F16 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("deltafp: dst must be F16 %v", d.OutputShape())
	}
	return d.decodeGroup(chunk, dst.F16s, lineLayout{h: d.c * d.h, rowStride: d.w, colStride: 1})
}

// lineBlock is the number of values a line decodes as FP32 before their one
// conversion to FP16: a stack array of it holds a whole line of every
// dataset here (W ≤ 288), and wider lines convert block by block.
const lineBlock = 512

// decodeLine decodes one framed line (Open validated its mode and, for RAW
// and CONST, its length) into the W values of out.
//
// RAW and DELTA lines decode in two passes per block of lineBlock values:
// the FP32 values into a stack array, then one fp16.FromSlice into out. The
// conversion is exact for every FP32 value, so no value needs a second look.
func (d *Decoder) decodeLine(line []byte, out []fp16.Bits) error {
	switch line[0] {
	case modeRaw:
		var vals [lineBlock]float32
		raw := line[1:]
		for len(out) > 0 {
			n := min(len(out), lineBlock)
			tensor.DecodeLE(vals[:n], raw)
			fp16.FromSlice(out, vals[:n])
			raw, out = raw[4*n:], out[n:]
		}
	case modeConst:
		v := fp16.FromFloat32(math.Float32frombits(binary.LittleEndian.Uint32(line[1:])))
		for i := range out {
			out[i] = v
		}
	case modeDelta:
		return d.decodeDeltaLine(line, out)
	}
	return nil
}

// decodeDeltaLine reconstructs one DELTA line into out segment by segment.
// A segment may straddle a block boundary: its running value carries on
// into the next block.
func (d *Decoder) decodeDeltaLine(line []byte, out []fp16.Bits) error {
	var vals [lineBlock]float32
	n := 0       // values in vals
	emitted := 0 // values converted into out
	nsegs := int(binary.LittleEndian.Uint16(line[1:]))
	pos := 3
	// A code byte is [sign:1][exponent-offset][mantissa] with the offset and
	// mantissa fields contiguous, so its low 7 bits shifted to the top of
	// the FP32 mantissa land the offset in the exponent field: the delta's
	// magnitude bits are the segment's base exponent plus that.
	shift := uint(23 - d.mantBits)
	maxOff := uint32(1)<<(7-d.mantBits) - 1
	for s := 0; s < nsegs; s++ {
		if pos+7 > len(line) {
			return errors.New("deltafp: truncated segment header")
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(line[pos:]))
		e := uint32(line[pos+4])
		count := int(binary.LittleEndian.Uint16(line[pos+5:]))
		pos += 7
		if count < 1 || emitted+n+count > len(out) || pos+count-1 > len(line) {
			return errors.New("deltafp: segment overruns line")
		}
		codes := line[pos : pos+count-1]
		pos += count - 1
		if n == lineBlock {
			fp16.FromSlice(out[emitted:], vals[:])
			emitted, n = emitted+lineBlock, 0
		}
		vals[n] = v
		n++
		for {
			k := min(len(codes), lineBlock-n)
			if scaledBase(e, maxOff) {
				v = deltaSegmentScaled(v, math.Float32frombits(e<<23), d.unit, codes[:k], vals[n:n+k])
			} else {
				v = deltaSegment(v, e<<23, shift, codes[:k], vals[n:n+k])
			}
			codes, n = codes[k:], n+k
			if len(codes) == 0 {
				break
			}
			fp16.FromSlice(out[emitted:], vals[:])
			emitted, n = emitted+lineBlock, 0
		}
	}
	if emitted+n != len(out) || pos != len(line) {
		return errors.New("deltafp: line did not decode to full width")
	}
	fp16.FromSlice(out[emitted:], vals[:n])
	return nil
}

// The two segment kernels add the deltas the codes denote to the running
// value v, store each sum in vals (len(codes) values) and return the last:
// the "software emulated addition for floating-point numbers", computed in
// FP32 and emitted as FP16 by the caller.

// unitDelta[mantBits][b] is the delta code b denotes at exponent base 127,
// built with deltaSegment's bit formula: ±(1 + m/2^mantBits)·2^off for
// offset off and mantissa m, and -0 for code 0. Scaling an entry by 2^(e-127)
// gives the delta at base e. Both factors are normal floats, so while the
// product's exponent e + off stays in [1, 254] the multiplication only adds
// exponents and is exact: it yields the very float32 the bit formula builds
// at base e (and -0 stays -0).
var unitDelta = func() (t [7][256]float32) {
	for mantBits := 1; mantBits <= 6; mantBits++ {
		shift := uint(23 - mantBits)
		for b := range t[mantBits] {
			bits := uint32(b&0x80)<<24 | (127<<23 + uint32(b&0x7F)<<shift)
			if b == 0 {
				bits = 0x80000000
			}
			t[mantBits][b] = math.Float32frombits(bits)
		}
	}
	return t
}()

// scaledBase reports whether a segment with exponent base e, whose codes
// have offsets up to maxOff, decodes through deltaSegmentScaled: when every
// e + offset lies in [1, 254], each delta is a unitDelta entry times the
// normal power of two 2^(e-127), exactly.
func scaledBase(e, maxOff uint32) bool { return e >= 1 && e+maxOff <= 254 }

// deltaSegmentScaled is deltaSegment for a segment whose deltas are all
// normal: one table load and one multiply by scale = 2^(e-127) per delta.
// The conversion to float32 keeps the product from fusing into the add, and
// reslicing unit to 256 entries spares the byte-indexed load its bounds
// check. A finite delta leaves a NaN running value's payload alone.
func deltaSegmentScaled(v, scale float32, unit []float32, codes []byte, vals []float32) float32 {
	unit = unit[:256]
	vals = vals[:len(codes)]
	for k, b := range codes {
		v += float32(unit[b] * scale)
		vals[k] = v
	}
	return v
}

// deltaSegment is the kernel for any exponent base, whose deltas may be
// subnormal, infinite or NaN.
func deltaSegment(v float32, expBase uint32, shift uint, codes []byte, vals []float32) float32 {
	vals = vals[:len(codes)]
	shift &= 31 // 17..22; the mask spares each shift its range check
	for k, b := range codes {
		// Byte 0 is an exact-zero delta: it selects -0, and v + (-0) == v
		// bit for bit for every v, -0 included (+0 would turn a -0 pivot
		// into +0).
		bits := uint32(b&0x80)<<24 | (expBase + uint32(b&0x7F)<<shift)
		if b == 0 {
			bits = 0x80000000
		}
		// A NaN running value stays as it is. Adding a NaN delta to it
		// would return whichever NaN operand the compiled add puts first.
		if v == v {
			v += math.Float32frombits(bits)
		}
		vals[k] = v
	}
	return v
}

// Stats summarizes an encoded blob.
type Stats struct {
	C, H, W              int
	RawLines, ConstLines int
	DeltaLines           int
	EncodedBytes         int
	SourceBytes          int // FP32 source size
	Ratio                float64
}

// BlobStats inspects blob without decoding it.
func BlobStats(blob []byte) (Stats, error) {
	cd, err := Format().Open(blob)
	if err != nil {
		return Stats{}, err
	}
	d := cd.(*Decoder)
	src := d.c * d.h * d.w * 4
	st := Stats{
		C: d.c, H: d.h, W: d.w,
		RawLines: d.nRaw, ConstLines: d.nConst, DeltaLines: d.nDelta,
		EncodedBytes: d.blobLen,
		SourceBytes:  src,
		Ratio:        float64(src) / float64(d.blobLen),
	}
	d.Recycle()
	return st, nil
}
