package deltafp

import (
	"encoding/binary"
	"sync"

	"scipp/internal/fp16"
)

// laneCount lines make one chunk: the group the lane kernel decodes in
// lockstep, one line per lane of an 8-wide FP32 register — the CPU's warp,
// in §VI's one-warp-per-line-group decomposition.
const laneCount = 8

// laneBlock is the number of columns of a group the lane kernel decodes per
// call: laneBuf holds that many columns of all eight lines (a whole
// DeepCAM line, W = 288), and a wider line takes several calls, the
// running values carrying over. It is a multiple of eight, the kernel's
// column step, and lanes_amd64.s hard-codes it.
const laneBlock = 320

// lineLayout places a decoded line in an output tensor: value x of line l
// lives at l/h + (l%h)*rowStride + x*colStride. The CHW layout is
// {C*H, W, 1}; the HWC one {H, W*C, C}.
type lineLayout struct{ h, rowStride, colStride int }

func (p lineLayout) base(l int) int { return l/p.h + l%p.h*p.rowStride }

// place writes vals as the values x0, x0+1, ... of line l.
func (p lineLayout) place(dst []fp16.Bits, l, x0 int, vals []fp16.Bits) {
	i := p.base(l) + x0*p.colStride
	if p.colStride == 1 {
		copy(dst[i:], vals)
		return
	}
	for _, v := range vals {
		dst[i] = v
		i += p.colStride
	}
}

// decodeGroup decodes chunk g — lines 8g up to 8g+7, fewer in the last
// group — into dst laid out as p. When the CPU has the lane kernel and at
// least two of the lines can use it (laneReady), those decode in lockstep
// (decodeLanes). Every other line, and every line of a group the lane
// kernel turns down, decodes alone through decodeLine, the reference body,
// which also reports any framing error.
func (d *Decoder) decodeGroup(g int, dst []fp16.Bits, p lineLayout) error {
	l0 := g * laneCount
	l1 := min(l0+laneCount, d.c*d.h)
	var lanes uint8 // bit i: line l0+i decoded in the lane kernel
	if useLanes {
		for l := l0; l < l1; l++ {
			if d.laneReady(l) {
				lanes |= 1 << (l - l0)
			}
		}
		if lanes&(lanes-1) == 0 || !d.decodeLanes(l0, l1, lanes, dst, p) {
			lanes = 0
		}
	}
	for l := l0; l < l1; l++ {
		if lanes&(1<<(l-l0)) != 0 {
			continue
		}
		line := d.payload[d.offsets[l]:d.offsets[l+1]]
		var err error
		if p.colStride == 1 {
			i := p.base(l)
			err = d.decodeLine(line, dst[i:i+d.w])
		} else {
			err = d.decodeLineScattered(line, l, dst, p)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeLineScattered decodes line l into a pooled contiguous scratch line,
// then places it in the strided layout p.
func (d *Decoder) decodeLineScattered(line []byte, l int, dst []fp16.Bits, p lineLayout) error {
	sp := lineScratch.Get().(*[]fp16.Bits)
	defer lineScratch.Put(sp)
	if cap(*sp) < d.w {
		//lint:ignore hotalloc pool miss: the scratch line grows once, then recycles
		*sp = make([]fp16.Bits, d.w)
	}
	tmp := (*sp)[:d.w]
	if err := d.decodeLine(line, tmp); err != nil {
		return err
	}
	p.place(dst, l, 0, tmp)
	return nil
}

// laneReady reports whether line l may decode in the lane kernel: a DELTA
// line that ends at least codeSlack bytes before the payload does, since
// laneFill's copies read that far. laneFill checks the segment framing.
func (d *Decoder) laneReady(l int) bool {
	return d.payload[d.offsets[l]] == modeDelta && int(d.offsets[l+1])+codeSlack <= len(d.payload)
}

// laneBuf is the lane kernel's working set for one group. laneFill fills
// codes, piv and reset for a block of columns, and deltaLanes turns them
// into FP16 rows, carrying v and base over to the next block. At about
// 23 KB it is pooled rather than zeroed on the stack for every group; only
// reset is cleared per block, and stale codes and pivots are harmless
// because a line's first column is a reset. lanes_amd64.s addresses the
// fields by offset (TestLaneBufLayout).
type laneBuf struct {
	v     [laneCount]float32    // running value per lane
	base  [2 * laneCount]uint16 // running exponent base e<<7 per lane, as deltaLanes lays it out
	mul   [2 * laneCount]uint16 // deltaLanes scratch: 2^(7-mantBits)
	codes [laneCount][laneBlock + codeSlack]uint8
	piv   [laneBlock][laneCount]float32
	reset [laneBlock][laneCount]uint8 // 0xFF where a lane's segment starts

	codesT [laneBlock][laneCount]uint8     // deltaLanes scratch: codes transposed
	out    [laneCount][laneBlock]fp16.Bits // FP16 rows, when not written in place
}

// codeSlack is the size of laneFill's code copies, and the slack after
// each row of laneBuf.codes that their overshoot lands in.
const codeSlack = 64

var laneBufs = sync.Pool{New: func() any { return new(laneBuf) }}

// laneCursor is one DELTA line's place in laneFill, which stops at block
// boundaries wherever they fall in a segment. Offsets are into the
// payload. lanes_amd64.s addresses the fields by offset.
type laneCursor struct {
	pos     int // the next byte to lay out
	end     int // the end of the current segment's codes
	lineEnd int // the end of the line
	segs    int // declared segments not yet read; negative past the last
}

// decodeLanes decodes the lines of group l0..l1-1 named by lanes, one line
// per lane, laneBlock columns at a time:
//
//   - laneFill, a scalar pre-pass, copies each line's code bytes into its
//     row of codes. A column where a segment starts holds the segment's
//     exponent base e instead, with the pivot in piv and 0xFF in reset. It
//     works per segment, not per value, and checks each header it reads.
//     It is assembly too: written in Go, the loop's state spilled to the
//     stack and the pre-pass cost more than the vector kernel.
//   - deltaLanes expands each column's eight codes into FP32 deltas with
//     deltaSegment's bit formula, runs the eight lines' add chains in one
//     vector register, converts each column to FP16 and transposes the
//     results back into one row per line.
//
// A full CHW group's rows are written in place, and the lines that are not
// lanes are decoded over their garbage afterwards; otherwise rows go
// through b.out and are placed. decodeLanes reports false, having written
// garbage, when some line's framing is broken: a header laneFill rejects,
// or, once W values are laid out, a line whose segments or bytes do not
// come out even. Those reject every line decodeDeltaLine rejects.
func (d *Decoder) decodeLanes(l0, l1 int, lanes uint8, dst []fp16.Bits, p lineLayout) bool {
	var cur [laneCount]laneCursor
	for i := range l1 - l0 {
		if lanes&(1<<i) != 0 {
			o, e := int(d.offsets[l0+i]), int(d.offsets[l0+i+1])
			nsegs := int(binary.LittleEndian.Uint16(d.payload[o+1:]))
			cur[i] = laneCursor{pos: o + 3, end: o + 3, lineEnd: e, segs: nsegs}
		}
	}
	b := laneBufs.Get().(*laneBuf)
	defer laneBufs.Put(b)
	inPlace := p.colStride == 1 && l1-l0 == laneCount
	for x0 := 0; x0 < d.w; x0 += laneBlock {
		n := min(laneBlock, d.w-x0)
		clear(b.reset[:n])
		if !laneFill(b, &cur, &d.payload[0], uint(lanes), n) {
			return false
		}
		// A last block of n%8 != 0 columns runs to the next multiple of
		// eight on stale codes; those columns go through b.out and are
		// not placed.
		if inPlace && n%8 == 0 {
			deltaLanes(b, n, 1<<(7-d.mantBits), &dst[p.base(l0)+x0], 2*p.rowStride)
			continue
		}
		deltaLanes(b, (n+7)&^7, 1<<(7-d.mantBits), &b.out[0][0], 2*laneBlock)
		for i := range l1 - l0 {
			if lanes&(1<<i) != 0 {
				p.place(dst, l0+i, x0, b.out[i][:n])
			}
		}
	}
	for i := range cur {
		if c := &cur[i]; c.segs != 0 || c.pos != c.lineEnd {
			return false
		}
	}
	return true
}
