package zfpc

//lint:file-ignore deadcode the zfp 3D comparator: no suite cell encodes a zfpc3d blob; queued for deletion with its tests (ROADMAP item 9)

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// 3D variant: 4x4x4 blocks with the lifting transform applied along each
// axis — zfp's native mode for volumetric scientific data, applied here to
// CosmoFlow-style voxel grids for the related-work comparison.

const blobMagic3D = 0x5A465033 // "ZFP3"

// seq3D orders the 64 coefficients of a 4x4x4 block by total band i+j+k.
var seq3D = buildSeq3D()
var seq3DBand = buildSeq3DBand()

func buildSeq3D() [64]int {
	var order [64]int
	n := 0
	for band := 0; band <= 9; band++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				k := band - i - j
				if k >= 0 && k < 4 {
					order[n] = (i*4+j)*4 + k
					n++
				}
			}
		}
	}
	return order
}

func buildSeq3DBand() [64]int {
	var b [64]int
	for n, idx := range buildSeq3D() {
		b[n] = idx/16 + (idx/4)%4 + idx%4
	}
	return b
}

// bitsFor3D allocates storage width by band with a 1-bit/band decay (3D
// bands run 0..9, so the 2D decay of 2 bits/band would zero too much).
func bitsFor3D(rate, n int) int {
	b := rate + 6 - seq3DBand[n]
	if b < 0 {
		return 0
	}
	if b > 30 {
		b = 30
	}
	return b
}

func block3DBits(rate int) int {
	total := 0
	for n := 0; n < 64; n++ {
		total += bitsFor3D(rate, n)
	}
	return total
}

// Encode3D compresses a [D, D, D] FP32 volume (flat, x-fastest) at the
// given options. Partial edge blocks replicate the boundary.
func Encode3D(data []float32, d int, opts Options) ([]byte, error) {
	if d <= 0 || len(data) != d*d*d {
		return nil, fmt.Errorf("zfpc: bad volume %d^3 with %d values", d, len(data))
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
	nb := (d + 3) / 4
	header := make([]byte, 0, 9)
	header = binary.LittleEndian.AppendUint32(header, blobMagic3D)
	header = binary.LittleEndian.AppendUint32(header, uint32(d))
	header = append(header, byte(opts.Rate))

	bits := newBitWriter()
	var block [64]float32
	for bz := 0; bz < nb; bz++ {
		for by := 0; by < nb; by++ {
			for bx := 0; bx < nb; bx++ {
				gather3D(data, d, bz, by, bx, &block)
				encodeBlock3D(&block, opts.Rate, bits)
			}
		}
	}
	return append(header, bits.bytes()...), nil
}

func gather3D(data []float32, d, bz, by, bx int, out *[64]float32) {
	for i := 0; i < 4; i++ {
		z := bz*4 + i
		if z >= d {
			z = d - 1
		}
		for j := 0; j < 4; j++ {
			y := by*4 + j
			if y >= d {
				y = d - 1
			}
			for k := 0; k < 4; k++ {
				x := bx*4 + k
				if x >= d {
					x = d - 1
				}
				out[(i*4+j)*4+k] = data[(z*d+y)*d+x]
			}
		}
	}
}

// lift3D applies fwdLift along one axis of the 4x4x4 block.
func lift3D(q *[64]int32, stride int, fwd bool) {
	// The block decomposes into 16 independent 4-vectors along each axis.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			var base int
			switch stride {
			case 1: // x axis: vary k
				base = (a*4 + b) * 4
			case 4: // y axis: vary j
				base = a*16 + b
			case 16: // z axis: vary i
				base = a*4 + b
			}
			var v [4]int32
			for t := 0; t < 4; t++ {
				v[t] = q[base+t*stride]
			}
			if fwd {
				fwdLift(&v)
			} else {
				invLift(&v)
			}
			for t := 0; t < 4; t++ {
				q[base+t*stride] = v[t]
			}
		}
	}
}

func encodeBlock3D(block *[64]float32, rate int, bits *bitWriter) {
	maxAbs := float32(0)
	for _, v := range block {
		if a := float32(math.Abs(float64(v))); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		bits.write(0, 8)
		return
	}
	_, emax := math.Frexp(float64(maxAbs))
	biased := emax + 128
	if biased < 1 {
		biased = 1
	}
	if biased > 255 {
		biased = 255
	}
	bits.write(uint64(biased), 8)
	emax = biased - 128

	scale := math.Ldexp(1, 24-emax) // 3 lifting passes: an extra headroom bit
	var q [64]int32
	for i, v := range block {
		q[i] = int32(math.Round(float64(v) * scale))
	}
	lift3D(&q, 1, true)
	lift3D(&q, 4, true)
	lift3D(&q, 16, true)
	for n := 0; n < 64; n++ {
		b := bitsFor3D(rate, n)
		if b == 0 {
			continue
		}
		shift := 27 - b
		c := q[seq3D[n]]
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

// Decode3D reconstructs the FP32 volume from an Encode3D blob.
func Decode3D(blob []byte) ([]float32, int, error) {
	if len(blob) < 9 {
		return nil, 0, errors.New("zfpc: blob too short")
	}
	if binary.LittleEndian.Uint32(blob[0:]) != blobMagic3D {
		return nil, 0, errors.New("zfpc: bad 3D magic")
	}
	d := int(binary.LittleEndian.Uint32(blob[4:]))
	rate := int(blob[8])
	if d <= 0 || d > 4096 || rate < 4 || rate > 16 {
		return nil, 0, fmt.Errorf("zfpc: invalid 3D header d=%d rate=%d", d, rate)
	}
	nb := (d + 3) / 4
	if int64(nb)*int64(nb)*int64(nb) > int64(len(blob))*8 {
		return nil, 0, fmt.Errorf("zfpc: header implies %d blocks from %d bytes", nb*nb*nb, len(blob))
	}
	bits := &bitReader{data: blob[9:]}
	out := make([]float32, d*d*d)
	var block [64]float32
	for bz := 0; bz < nb; bz++ {
		for by := 0; by < nb; by++ {
			for bx := 0; bx < nb; bx++ {
				if err := decodeBlock3D(&block, rate, bits); err != nil {
					return nil, 0, err
				}
				scatter3D(out, d, bz, by, bx, &block)
			}
		}
	}
	return out, d, nil
}

func decodeBlock3D(block *[64]float32, rate int, bits *bitReader) error {
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
	var q [64]int32
	for n := 0; n < 64; n++ {
		b := bitsFor3D(rate, n)
		if b == 0 {
			q[seq3D[n]] = 0
			continue
		}
		raw, err := bits.read(b)
		if err != nil {
			return err
		}
		v := int32(raw << (32 - uint(b)))
		v >>= 32 - uint(b)
		shift := 27 - b
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
		q[seq3D[n]] = rec
	}
	lift3D(&q, 16, false)
	lift3D(&q, 4, false)
	lift3D(&q, 1, false)
	scale := math.Ldexp(1, emax-24)
	for i, v := range q {
		block[i] = float32(float64(v) * scale)
	}
	return nil
}

func scatter3D(out []float32, d, bz, by, bx int, block *[64]float32) {
	for i := 0; i < 4; i++ {
		z := bz*4 + i
		if z >= d {
			continue
		}
		for j := 0; j < 4; j++ {
			y := by*4 + j
			if y >= d {
				continue
			}
			for k := 0; k < 4; k++ {
				x := bx*4 + k
				if x >= d {
					continue
				}
				out[(z*d+y)*d+x] = block[(i*4+j)*4+k]
			}
		}
	}
}

// EncodedSize3D predicts the 3D blob size.
func EncodedSize3D(d, rate int) int {
	nb := (d + 3) / 4
	perBlockBits := 8 + block3DBits(rate)
	totalBits := nb * nb * nb * perBlockBits
	return 9 + (totalBits+7)/8
}
