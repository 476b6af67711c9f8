// Package lut implements the paper's CosmoFlow lookup-table encoding (§V-B,
// Fig 5).
//
// A CosmoFlow sample holds four redshift snapshots of the same sub-volume.
// The particle counts across the four redshifts at one voxel are highly
// coupled, so the number of unique 4-groups is tiny compared to the
// permutation bound (tens of thousands vs 10^11 in the paper). The encoder
// builds a per-sample table of unique groups and stores one small key per
// voxel: 1 byte when the table has <= 256 entries, else 2 bytes ("keys of
// width 1 or 2 bytes for lookup tables, with lookup values of 8 bytes" —
// the 8-byte lookup value is exactly the four FP16 outputs per group).
// Volumes whose group count overflows 16-bit keys are split along z into
// sub-volumes with independent tables ("for larger than 128^3
// decompositions, multiple lookup tables are required").
//
// The decode path realizes the paper's fused-operator optimization: the
// preprocessing op — log(1+count) — and the FP16 cast are folded into the
// decoded table instead of running once per voxel ("applying the log
// operator before decompression is advantageous"; the sample has 8M values
// but three orders of magnitude fewer unique groups). Counts are int16, so
// the operator has at most 65 536 distinct inputs per process: it is
// evaluated once per count value into a process-wide table, and building a
// sample's fused table is one lookup per group entry.
package lut

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

const blobMagic = 0x434C5554 // "CLUT"

// Op selects the preprocessing operator fused into decode.
type Op uint8

const (
	// OpLog1p emits log(1 + count), CosmoFlow's preprocessing (§II).
	OpLog1p Op = iota
	// OpIdentity emits the raw count, for ablations and round-trip checks.
	OpIdentity
)

// Apply evaluates the operator in FP32 (the precision the baseline CPU
// preprocessing uses before casting). It panics on an unknown operator
// (programmer invariant: Open rejects formats with operators outside the
// package's constants before any decode runs).
func (op Op) Apply(count int16) float32 {
	switch op {
	case OpLog1p:
		return float32(math.Log1p(float64(count)))
	case OpIdentity:
		return float32(count)
	}
	panic(fmt.Sprintf("lut: unknown op %d", op))
}

// valueTable is fp16(op(count)) for every int16 bit pattern, indexed by
// uint16(count), followed by the gather kernel's padding entry.
type valueTable = fp16.CountTable

// lazyValues is a valueTable built on first use.
type lazyValues struct {
	once sync.Once
	t    valueTable
}

func (l *lazyValues) get(op Op) *valueTable {
	l.once.Do(func() {
		for i := range 1 << 16 {
			l.t[i] = fp16.FromFloat32(op.Apply(int16(i)))
		}
	})
	return &l.t
}

// valueTables holds one table per Op. They are process-wide — 128 KB each,
// shared by every Decoder and every concurrent Open.
var valueTables [2]lazyValues

// useGather reports that Open and DecodeChunk run the whole blocks of their
// table passes through fp16's AVX-512 kernels (fp16's CPU probe; a test
// clears it to force the portable bodies).
var useGather = fp16.AVX512()

// values returns op's value table. op must be one of the package's
// constants.
func (op Op) values() *valueTable { return valueTables[op].get(op) }

// group is one unique 4-redshift count vector.
type group [4]int16

// Encode compresses the four redshift channels (each dim^3 int16 counts,
// x-fastest order) into a LUT blob.
func Encode(channels [4][]int16, dim int) ([]byte, error) {
	n := dim * dim * dim
	if dim <= 0 {
		return nil, fmt.Errorf("lut: invalid dim %d", dim)
	}
	for c := range channels {
		if len(channels[c]) != n {
			return nil, fmt.Errorf("lut: channel %d has %d voxels, want %d", c, len(channels[c]), n)
		}
	}

	// Recursive z-split until each sub-volume's group count fits 16-bit keys.
	type subEnc struct {
		z0, z1 int
		table  []group
		keys   []uint16 // table indices per voxel; packed at serialization
	}
	var subs []subEnc
	var build func(z0, z1 int) error
	build = func(z0, z1 int) error {
		plane := dim * dim
		idx := make(map[group]uint16, 1<<14)
		keys := make([]uint16, (z1-z0)*plane)
		var table []group
		for v := z0 * plane; v < z1*plane; v++ {
			g := group{channels[0][v], channels[1][v], channels[2][v], channels[3][v]}
			k, ok := idx[g]
			if !ok {
				if len(table) > math.MaxUint16 {
					// Too many groups: split the z-range and retry halves.
					if z1-z0 <= 1 {
						return errors.New("lut: single z-slice exceeds 65536 groups")
					}
					mid := (z0 + z1) / 2
					if err := build(z0, mid); err != nil {
						return err
					}
					return build(mid, z1)
				}
				k = uint16(len(table))
				table = append(table, g)
				idx[g] = k
			}
			keys[v-z0*plane] = k
		}
		subs = append(subs, subEnc{z0: z0, z1: z1, table: table, keys: keys})
		return nil
	}
	if err := build(0, dim); err != nil {
		return nil, err
	}

	// Serialize.
	size := 12
	for _, s := range subs {
		kw := 2
		if len(s.table) <= 256 {
			kw = 1
		}
		size += 4 + 4 + 1 + 4 + len(s.table)*8 + len(s.keys)*kw
	}
	blob := make([]byte, 0, size)
	blob = binary.LittleEndian.AppendUint32(blob, blobMagic)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(dim))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(subs)))
	for _, s := range subs {
		kw := byte(2)
		if len(s.table) <= 256 {
			kw = 1
		}
		blob = binary.LittleEndian.AppendUint32(blob, uint32(s.z0))
		blob = binary.LittleEndian.AppendUint32(blob, uint32(s.z1))
		blob = append(blob, kw)
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(s.table)))
		for _, g := range s.table {
			blob = tensor.AppendLE(blob, g[:])
		}
		if kw == 1 {
			for _, k := range s.keys {
				blob = append(blob, byte(k))
			}
		} else {
			for _, k := range s.keys {
				blob = binary.LittleEndian.AppendUint16(blob, k)
			}
		}
	}
	return blob, nil
}

// format implements codec.Format.
type format struct {
	op    Op
	fused bool
}

// Format returns the default codec.Format: log1p fused into the table.
func Format() codec.Format { return format{op: OpLog1p, fused: true} }

func init() {
	codec.Register(Format())
	codec.Register(FormatWithOp(OpLog1p, false))
}

// FormatWithOp returns a Format applying the given operator. fused selects
// the table-level application (the paper's optimization); fused=false
// applies the op per voxel, for the ablation benchmark.
func FormatWithOp(op Op, fused bool) codec.Format { return format{op: op, fused: fused} }

func (f format) Name() string {
	if !f.fused {
		return "cosmo-lut-unfused"
	}
	return "cosmo-lut"
}

type sub struct {
	z0, z1   int
	keyWidth int
	ngroups  int
	rawTable []byte // ngroups * 8 bytes of int16 groups
	keys     []byte // (z1-z0)*dim^2 * keyWidth bytes
	// decoded is the fused table: one 8-byte word per group (the paper's
	// lookup-value width) packing the group's four FP16 outputs, channel c
	// in bits 16c..16c+15, built once at Open.
	decoded []uint64
}

// Decoder decodes a LUT blob. Chunks are z-slices; DecodeChunk may be called
// concurrently on distinct chunks.
type Decoder struct {
	dim     int
	shape   [4]int // [4, dim, dim, dim], backing OutputShape
	op      Op
	fused   bool
	subs    []sub
	blobLen int
	// subOfZ maps a z-slice to its sub-volume index.
	subOfZ []int
	// tables is the decoder's freelist of fused-table backing slices,
	// scavenged from recycled sub-volumes so a reused Decoder re-fuses its
	// groups into existing memory.
	tables [][]uint64
}

// decoderPool recycles Decoder structs — with their z-maps, sub-volume
// slices, and fused-table backing memory — between samples: the pipeline's
// decode stage hands finished decoders back via codec.Recycle, so a steady
// decode loop re-fuses each sample's groups into memory it already owns.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// getDecoder returns a reset Decoder whose subOfZ covers dim z-slices,
// reusing recycled backing memory when available.
func getDecoder(dim int) *Decoder {
	d := decoderPool.Get().(*Decoder)
	subOfZ := d.subOfZ
	if cap(subOfZ) < dim {
		//lint:ignore hotalloc pool miss: a recycled decoder keeps its z-map
		subOfZ = make([]int, dim)
	}
	*d = Decoder{subOfZ: subOfZ[:dim], subs: d.subs[:0], tables: d.tables}
	return d
}

// getTable returns an n-group fused-table slice, preferring the freelist.
func (d *Decoder) getTable(n int) []uint64 {
	for i, t := range d.tables {
		if cap(t) >= n {
			last := len(d.tables) - 1
			d.tables[i] = d.tables[last]
			d.tables = d.tables[:last]
			return t[:n]
		}
	}
	//lint:ignore hotalloc freelist miss: Recycle keeps the table for the next sample
	return make([]uint64, n)
}

// Recycle implements codec.Recycler: it drops every blob reference, keeps
// the fused-table memory on the decoder's freelist, and returns the decoder
// to the pool. The decoder must not be used afterwards.
func (d *Decoder) Recycle() {
	for i := range d.subs {
		if d.subs[i].decoded != nil {
			d.tables = append(d.tables, d.subs[i].decoded)
		}
		d.subs[i] = sub{}
	}
	subOfZ, subs, tables := d.subOfZ, d.subs[:0], d.tables
	*d = Decoder{subOfZ: subOfZ[:0], subs: subs, tables: tables}
	decoderPool.Put(d)
}

// Open implements codec.Format: it validates the blob's framing and builds
// each sub-volume's fused table.
//
//scipp:hotpath
func (f format) Open(blob []byte) (codec.ChunkDecoder, error) {
	if f.op != OpLog1p && f.op != OpIdentity {
		return nil, fmt.Errorf("lut: unknown op %d", f.op)
	}
	if len(blob) < 12 {
		return nil, errors.New("lut: blob too short")
	}
	if binary.LittleEndian.Uint32(blob[0:]) != blobMagic {
		return nil, errors.New("lut: bad magic")
	}
	dim := int(binary.LittleEndian.Uint32(blob[4:]))
	nsub := int(binary.LittleEndian.Uint32(blob[8:]))
	if dim <= 0 || nsub <= 0 || nsub > dim {
		return nil, fmt.Errorf("lut: invalid header dim=%d nsub=%d", dim, nsub)
	}
	// Allocation guard: keys occupy at least one byte per voxel, so a blob
	// shorter than dim^3 cannot be valid; reject before allocating.
	if dim > 4096 || int64(len(blob)) < int64(dim)*int64(dim)*int64(dim) {
		return nil, fmt.Errorf("lut: dim %d implausible for a %d-byte blob", dim, len(blob))
	}
	d := getDecoder(dim)
	d.dim, d.op, d.fused, d.blobLen = dim, f.op, f.fused, len(blob)
	d.shape = [4]int{4, dim, dim, dim}
	for i := range d.subOfZ {
		d.subOfZ[i] = -1
	}
	plane := dim * dim
	pos := 12
	for i := 0; i < nsub; i++ {
		if pos+13 > len(blob) {
			d.Recycle()
			return nil, errors.New("lut: truncated sub-volume header")
		}
		z0 := int(binary.LittleEndian.Uint32(blob[pos:]))
		z1 := int(binary.LittleEndian.Uint32(blob[pos+4:]))
		kw := int(blob[pos+8])
		ng := int(binary.LittleEndian.Uint32(blob[pos+9:]))
		pos += 13
		if z0 < 0 || z1 <= z0 || z1 > dim || (kw != 1 && kw != 2) || ng <= 0 || ng > math.MaxUint16+1 {
			d.Recycle()
			return nil, fmt.Errorf("lut: invalid sub-volume z=[%d,%d) kw=%d ng=%d", z0, z1, kw, ng)
		}
		if kw == 1 && ng > 256 {
			d.Recycle()
			return nil, errors.New("lut: 1-byte keys with >256 groups")
		}
		tlen := ng * 8
		klen := (z1 - z0) * plane * kw
		if pos+tlen+klen > len(blob) {
			d.Recycle()
			return nil, errors.New("lut: truncated sub-volume payload")
		}
		s := sub{
			z0: z0, z1: z1, keyWidth: kw, ngroups: ng,
			rawTable: blob[pos : pos+tlen],
			keys:     blob[pos+tlen : pos+tlen+klen],
		}
		pos += tlen + klen
		if f.fused {
			// The fused-operator optimization: op + FP16 cast come out of
			// the per-count value table, one lookup per group entry.
			vals := f.op.values()
			s.decoded = d.getTable(ng)
			done := 0
			if useGather {
				done = fp16.FuseBlocks(s.decoded, s.rawTable, vals)
			}
			fp16.FuseCounts(s.decoded, s.rawTable, vals, done)
		}
		for z := z0; z < z1; z++ {
			if d.subOfZ[z] != -1 {
				d.subs = append(d.subs, s)
				d.Recycle()
				return nil, fmt.Errorf("lut: overlapping sub-volumes at z=%d", z)
			}
			d.subOfZ[z] = len(d.subs)
		}
		d.subs = append(d.subs, s)
	}
	if pos != len(blob) {
		d.Recycle()
		return nil, errors.New("lut: trailing bytes")
	}
	for z, si := range d.subOfZ {
		if si == -1 {
			d.Recycle()
			return nil, fmt.Errorf("lut: z=%d not covered by any sub-volume", z)
		}
	}
	return d, nil
}

// OutputShape implements codec.ChunkDecoder.
func (d *Decoder) OutputShape() tensor.Shape { return d.shape[:] }

// OutputDType implements codec.ChunkDecoder.
func (d *Decoder) OutputDType() tensor.DType { return tensor.F16 }

// NumChunks implements codec.ChunkDecoder: one chunk per z-slice.
func (d *Decoder) NumChunks() int { return d.dim }

// Groups returns the total unique-group count across sub-volumes.
func (d *Decoder) Groups() int {
	n := 0
	for _, s := range d.subs {
		n += s.ngroups
	}
	return n
}

// KeyWidth returns the key width in bytes of sub-volume i.
//
//lint:ignore deadcode blob introspection: the lut and codec tests and the root benchmarks check key widths with it
func (d *Decoder) KeyWidth(i int) int { return d.subs[i].keyWidth }

// Workload implements codec.ChunkDecoder.
func (d *Decoder) Workload() codec.Workload {
	n := d.dim * d.dim * d.dim
	ops := 5 * n // key fetch + 4 table reads/stores per voxel
	if !d.fused {
		ops += 4 * n * 8 // per-voxel log evaluation (ablation path)
	} else {
		ops += d.Groups() * 4 * 8 // log on unique groups only
	}
	return codec.Workload{
		BytesIn:  d.blobLen,
		BytesOut: 4 * n * 2,
		Ops:      ops,
		Chunks:   d.dim,
		// Table lookups are uniform control flow; no divergence.
		Divergent: 0,
	}
}

// DecodeChunk implements codec.ChunkDecoder: decodes z-slice chunk into all
// four channels of dst.
//
//scipp:hotpath
func (d *Decoder) DecodeChunk(chunk int, dst *tensor.Tensor) error {
	if chunk < 0 || chunk >= d.dim {
		return fmt.Errorf("lut: chunk %d out of range", chunk)
	}
	if dst.DT != tensor.F16 || !dst.Shape.Equal(d.OutputShape()) {
		return fmt.Errorf("lut: dst must be F16 %v", d.OutputShape())
	}
	s := &d.subs[d.subOfZ[chunk]]
	plane := d.dim * d.dim
	vol := plane * d.dim
	local := (chunk - s.z0) * plane
	base := chunk * plane
	// The z-slice's four channel planes and its keys.
	var planes [4][]fp16.Bits
	for c := range planes {
		planes[c] = dst.F16s[c*vol+base:][:plane:plane]
	}
	keys := s.keys[local*s.keyWidth:][:plane*s.keyWidth]
	if !d.fused {
		// Ablation path: evaluate the op per voxel, as the baseline
		// preprocessing does.
		for p := range plane {
			var k int
			if s.keyWidth == 1 {
				k = int(keys[p])
			} else {
				k = int(binary.LittleEndian.Uint16(keys[2*p:]))
			}
			if k >= s.ngroups {
				return keyError(k, s.ngroups)
			}
			for c := range planes {
				count := int16(binary.LittleEndian.Uint16(s.rawTable[k*8+c*2:]))
				planes[c][p] = fp16.FromFloat32(d.op.Apply(count))
			}
		}
		return nil
	}
	// The kernel gathers the whole 16-voxel blocks up to the first one
	// holding a bad key; the portable body does the rest and reports that
	// key, so both paths leave the same planes behind.
	done := 0
	if useGather {
		done = fp16.LookupBlocks(&planes, keys, s.keyWidth, s.decoded)
	}
	if bad := fp16.LookupPlanes(&planes, keys, s.keyWidth, s.decoded, done); bad >= 0 {
		k := int(keys[bad*s.keyWidth])
		if s.keyWidth == 2 {
			k = int(binary.LittleEndian.Uint16(keys[2*bad:]))
		}
		return keyError(k, s.ngroups)
	}
	return nil
}

func keyError(k, ngroups int) error {
	return fmt.Errorf("lut: key %d out of table (%d groups)", k, ngroups)
}

// Stats summarizes an encoded blob.
type Stats struct {
	Dim          int
	SubVolumes   int
	Groups       int
	EncodedBytes int
	SourceBytes  int // int16 on-disk source size (4 channels)
	RawF32Bytes  int // FP32 in-memory size the baseline materializes
	Ratio        float64
}

// BlobStats inspects blob without decoding voxels.
func BlobStats(blob []byte) (Stats, error) {
	cd, err := Format().Open(blob)
	if err != nil {
		return Stats{}, err
	}
	d := cd.(*Decoder)
	n := d.dim * d.dim * d.dim
	src := 4 * n * 2
	st := Stats{
		Dim:          d.dim,
		SubVolumes:   len(d.subs),
		Groups:       d.Groups(),
		EncodedBytes: d.blobLen,
		SourceBytes:  src,
		RawF32Bytes:  4 * n * 4,
		Ratio:        float64(src) / float64(d.blobLen),
	}
	d.Recycle()
	return st, nil
}
