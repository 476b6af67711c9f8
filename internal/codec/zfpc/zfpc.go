// Package zfpc implements a simplified zfp-style fixed-rate block-transform
// compressor for 2D FP32 fields — the class of general-purpose
// floating-point compressors the paper's related work covers (zfp/fpzip,
// §III refs [24]-[27]) and sets aside: "they do not provide mixed-precision
// solutions, specifically targeting 16-bit floating-point representation,
// and the support on accelerator architecture is limited. Moreover, most
// compression frameworks do not provide the flexibility to fuse or reorder
// user-level compute operations with the decompression process."
//
// The scheme follows zfp's structure (per 4x4 block: block-floating-point
// alignment to a common exponent, the zfp integer lifting transform along
// each axis, sequency-ordered coefficients, coarser quantization for higher
// bands) in a simplified fixed-rate layout. It exists as a comparator: the
// paper suite's zfp rows report its ratio/error next to the domain codec,
// and it intentionally decodes only to FP32 on the host — no FP16 output,
// no operator fusion, no chunk-decoder plugin — mirroring the limitations
// the paper cites.
package zfpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Options configure the encoder.
type Options struct {
	// Rate is the nominal bits per value (4..16). Payload per 4x4 block is
	// fixed at 16*Rate bits plus a 1-byte block exponent.
	Rate int
}

// DefaultRate gives ~3.6x compression vs FP32, comparable to the paper's
// domain codec, for an apples-to-apples error comparison.
const DefaultRate = 8

func (o Options) withDefaults() Options {
	if o.Rate == 0 {
		o.Rate = DefaultRate
	}
	return o
}

func (o Options) validate() error {
	if o.Rate < 4 || o.Rate > 16 {
		return fmt.Errorf("zfpc: rate %d out of [4,16]", o.Rate)
	}
	return nil
}

const blobMagic = 0x5A465043 // "ZFPC"

// sequency order of 4x4 coefficients: by band (i+j), then row. Band 0 is
// the DC coefficient; band 6 the highest-frequency corner.
var seqOrder = buildSeqOrder()

// band[k] is the total order (i+j) of the k-th coefficient in seqOrder.
var seqBand = buildSeqBand()

func buildSeqOrder() [16]int {
	var order [16]int
	k := 0
	for band := 0; band <= 6; band++ {
		for i := 0; i < 4; i++ {
			j := band - i
			if j >= 0 && j < 4 {
				order[k] = i*4 + j
				k++
			}
		}
	}
	return order
}

func buildSeqBand() [16]int {
	var b [16]int
	for k, idx := range buildSeqOrder() {
		b[k] = idx/4 + idx%4
	}
	return b
}

// bitsFor returns the quantized storage width of sequency position k at the
// given rate: higher bands lose two bits per band, zfp's energy heuristic.
func bitsFor(rate, k int) int {
	b := rate + 6 - 2*seqBand[k]
	if b < 0 {
		return 0
	}
	if b > 30 {
		b = 30
	}
	return b
}

// blockBits returns the packed payload bits per block at a rate.
func blockBits(rate int) int {
	total := 0
	for k := 0; k < 16; k++ {
		total += bitsFor(rate, k)
	}
	return total
}

// fwdLift is zfp's forward decorrelating transform on a 4-vector.
func fwdLift(p *[4]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// invLift inverts fwdLift exactly.
func invLift(p *[4]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// Encode compresses a [H, W] FP32 plane (passed as a flat slice) at the
// given options. Partial edge blocks are padded by replicating the last row
// and column.
func Encode(data []float32, h, w int, opts Options) ([]byte, error) {
	if h <= 0 || w <= 0 || len(data) != h*w {
		return nil, fmt.Errorf("zfpc: bad plane %dx%d with %d values", h, w, len(data))
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	for _, v := range data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, errors.New("zfpc: non-finite values are not representable in block-floating-point")
		}
	}
	bh, bw := (h+3)/4, (w+3)/4
	header := make([]byte, 0, 17)
	header = binary.LittleEndian.AppendUint32(header, blobMagic)
	header = binary.LittleEndian.AppendUint32(header, uint32(h))
	header = binary.LittleEndian.AppendUint32(header, uint32(w))
	header = append(header, byte(opts.Rate))

	bits := newBitWriter()
	var block [16]float32
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			gatherBlock(data, h, w, by, bx, &block)
			encodeBlock(&block, opts.Rate, bits)
		}
	}
	return append(header, bits.bytes()...), nil
}

func gatherBlock(data []float32, h, w, by, bx int, out *[16]float32) {
	for i := 0; i < 4; i++ {
		y := by*4 + i
		if y >= h {
			y = h - 1
		}
		for j := 0; j < 4; j++ {
			x := bx*4 + j
			if x >= w {
				x = w - 1
			}
			out[i*4+j] = data[y*w+x]
		}
	}
}

func encodeBlock(block *[16]float32, rate int, bits *bitWriter) {
	// Block-floating-point: align to the common (max) exponent.
	maxAbs := float32(0)
	for _, v := range block {
		if a := float32(math.Abs(float64(v))); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		bits.write(0, 8) // emax byte 0 = all-zero block
		return
	}
	_, emax := math.Frexp(float64(maxAbs))
	// Store emax biased into a byte (field range approximately 2^-127..2^126).
	biased := emax + 128
	if biased < 1 {
		biased = 1
	}
	if biased > 255 {
		biased = 255
	}
	bits.write(uint64(biased), 8)
	emax = biased - 128

	// Fixed-point: i = v * 2^(25 - emax), |i| < 2^25; two lifting passes add
	// at most ~2 bits of growth, safely inside int32.
	scale := math.Ldexp(1, 25-emax)
	var q [16]int32
	for i, v := range block {
		q[i] = int32(math.Round(float64(v) * scale))
	}
	// Decorrelate rows, then columns.
	for r := 0; r < 4; r++ {
		var row [4]int32
		copy(row[:], q[r*4:r*4+4])
		fwdLift(&row)
		copy(q[r*4:r*4+4], row[:])
	}
	for c := 0; c < 4; c++ {
		col := [4]int32{q[c], q[4+c], q[8+c], q[12+c]}
		fwdLift(&col)
		q[c], q[4+c], q[8+c], q[12+c] = col[0], col[1], col[2], col[3]
	}
	// Quantize per sequency position and pack. Quantization rounds toward
	// zero symmetrically: an arithmetic shift would floor small negative
	// coefficients to -1 and reconstruct them half a step away.
	for k := 0; k < 16; k++ {
		b := bitsFor(rate, k)
		if b == 0 {
			continue
		}
		shift := 27 - b // keep the top b bits of the +-2^27 coefficient range
		c := q[seqOrder[k]]
		neg := c < 0
		if neg {
			c = -c
		}
		v := c >> uint(shift)
		lim := int32(1)<<(b-1) - 1
		if v > lim {
			v = lim
		}
		if neg {
			v = -v
		}
		bits.write(uint64(uint32(v))&((1<<uint(b))-1), b)
	}
}

// Decode reconstructs the FP32 plane from an Encode blob.
func Decode(blob []byte) ([]float32, int, int, error) {
	if len(blob) < 13 {
		return nil, 0, 0, errors.New("zfpc: blob too short")
	}
	if binary.LittleEndian.Uint32(blob[0:]) != blobMagic {
		return nil, 0, 0, errors.New("zfpc: bad magic")
	}
	h := int(binary.LittleEndian.Uint32(blob[4:]))
	w := int(binary.LittleEndian.Uint32(blob[8:]))
	rate := int(blob[12])
	if h <= 0 || w <= 0 || rate < 4 || rate > 16 {
		return nil, 0, 0, fmt.Errorf("zfpc: invalid header h=%d w=%d rate=%d", h, w, rate)
	}
	bh, bw := (h+3)/4, (w+3)/4
	// Allocation guard: payload is bounded below by one emax byte per block.
	if int64(bh)*int64(bw) > int64(len(blob))*8 {
		return nil, 0, 0, fmt.Errorf("zfpc: header implies %d blocks from %d bytes", bh*bw, len(blob))
	}
	bits := &bitReader{data: blob[13:]}
	out := make([]float32, h*w)
	var block [16]float32
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			if err := decodeBlock(&block, rate, bits); err != nil {
				return nil, 0, 0, err
			}
			scatterBlock(out, h, w, by, bx, &block)
		}
	}
	return out, h, w, nil
}

func decodeBlock(block *[16]float32, rate int, bits *bitReader) error {
	biased, err := bits.read(8)
	if err != nil {
		return err
	}
	if biased == 0 {
		for i := range block {
			block[i] = 0
		}
		return nil
	}
	emax := int(biased) - 128
	var q [16]int32
	for k := 0; k < 16; k++ {
		b := bitsFor(rate, k)
		if b == 0 {
			q[seqOrder[k]] = 0
			continue
		}
		raw, err := bits.read(b)
		if err != nil {
			return err
		}
		// Sign-extend the b-bit value.
		v := int32(raw << (32 - uint(b)))
		v >>= 32 - uint(b)
		shift := 27 - b
		// Reconstruct at the bucket midpoint, symmetrically around zero.
		var rec int32
		if v != 0 {
			neg := v < 0
			a := v
			if neg {
				a = -v
			}
			rec = a << uint(shift)
			if shift > 0 {
				rec |= 1 << uint(shift-1)
			}
			if neg {
				rec = -rec
			}
		}
		q[seqOrder[k]] = rec
	}
	for c := 0; c < 4; c++ {
		col := [4]int32{q[c], q[4+c], q[8+c], q[12+c]}
		invLift(&col)
		q[c], q[4+c], q[8+c], q[12+c] = col[0], col[1], col[2], col[3]
	}
	for r := 0; r < 4; r++ {
		var row [4]int32
		copy(row[:], q[r*4:r*4+4])
		invLift(&row)
		copy(q[r*4:r*4+4], row[:])
	}
	scale := math.Ldexp(1, emax-25)
	for i, v := range q {
		block[i] = float32(float64(v) * scale)
	}
	return nil
}

func scatterBlock(out []float32, h, w, by, bx int, block *[16]float32) {
	for i := 0; i < 4; i++ {
		y := by*4 + i
		if y >= h {
			continue
		}
		for j := 0; j < 4; j++ {
			x := bx*4 + j
			if x >= w {
				continue
			}
			out[y*w+x] = block[i*4+j]
		}
	}
}

// EncodedSize predicts the blob size for a plane at a rate.
//
//lint:ignore deadcode size oracle: TestFixedRateSize checks the encoder's fixed-rate guarantee against it
func EncodedSize(h, w, rate int) int {
	bh, bw := (h+3)/4, (w+3)/4
	perBlockBits := 8 + blockBits(rate)
	totalBits := bh * bw * perBlockBits
	return 13 + (totalBits+7)/8
}

// --- bit IO ---

type bitWriter struct {
	buf []byte
	acc uint64
	n   int
}

func newBitWriter() *bitWriter { return &bitWriter{} }

func (bw *bitWriter) write(v uint64, bits int) {
	bw.acc |= (v & ((1 << uint(bits)) - 1)) << uint(bw.n)
	bw.n += bits
	for bw.n >= 8 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc >>= 8
		bw.n -= 8
	}
}

func (bw *bitWriter) bytes() []byte {
	out := bw.buf
	if bw.n > 0 {
		out = append(out, byte(bw.acc))
	}
	return out
}

type bitReader struct {
	data []byte
	pos  int
	acc  uint64
	n    int
}

func (br *bitReader) read(bits int) (uint64, error) {
	for br.n < bits {
		if br.pos >= len(br.data) {
			return 0, errors.New("zfpc: truncated bit stream")
		}
		br.acc |= uint64(br.data[br.pos]) << uint(br.n)
		br.pos++
		br.n += 8
	}
	v := br.acc & ((1 << uint(bits)) - 1)
	br.acc >>= uint(bits)
	br.n -= bits
	return v, nil
}
