package dataserve

import (
	"encoding/binary"
	"fmt"
	"math"

	"scipp/internal/tensor"
)

// The shared cache stores decoded samples, not encoded blobs: the whole
// point of sharing is that a sample borrowed from another tenant skips the
// decode. A decoded tensor is serialized into the cache's []byte payload
// with a fixed little-endian header — magic, version, dtype, rank, dims —
// followed by the raw element bits. Element bits are preserved exactly
// (no float conversion), so a tenant materializing a cached sample is
// bit-identical to the tenant that decoded it, and the SampleCache's
// integrity checksum covers the sample end to end.

const (
	blobMagic   = 0x53434453 // "SCDS"
	blobVersion = 1
)

// encodedSize returns the serialized size of t in bytes.
func encodedSize(t *tensor.Tensor) int {
	return 4 + 1 + 1 + 1 + 4*len(t.Shape) + t.Bytes()
}

// encodeTensor serializes a decoded sample tensor for cache residency into
// an exactly sized buffer, which SampleCache.Put then adopts as the
// resident without a second copy.
func encodeTensor(t *tensor.Tensor) []byte {
	buf := make([]byte, encodedSize(t))
	binary.LittleEndian.PutUint32(buf, blobMagic)
	buf[4], buf[5], buf[6] = blobVersion, byte(t.DT), byte(len(t.Shape))
	for i, d := range t.Shape {
		binary.LittleEndian.PutUint32(buf[7+4*i:], uint32(d))
	}
	p := buf[7+4*len(t.Shape):]
	switch t.DT {
	case tensor.F32:
		putF32s(p, t.F32s)
	case tensor.F16:
		put16s(p, t.F16s)
	case tensor.I16:
		put16s(p, t.I16s)
	}
	return buf
}

// decodeTensorHeader validates a serialized sample's header and returns the
// dtype and shape a destination tensor must have — what the materializing
// tenant asks its pool for. The shape is appended to dims[:0], so a caller
// passing a stack array's slice decodes a hit's header without allocating;
// nil allocates. Every rejection is a typed *BlobFormatError.
//
// The header's dims are untrusted: the caller allocates a tensor of exactly
// this shape, so the element count must be proven to fit the payload BEFORE
// any size arithmetic that could overflow. Dims like {1<<31, 1<<31} multiply
// to 2^62 elements whose 2^64-byte size wraps int to 0 — under the old
// unchecked arithmetic a 15-byte payload passed the length test and the
// materializing allocation OOM-panicked (the dims-int64-wrap fuzz crasher).
// The running product is therefore bounded by len(enc) at every step, which
// also makes the subsequent want computation overflow-free. Rank 0 is
// rejected outright: the encoder never emits scalars, so a rank-0 header is
// corruption, not a sample (zero-length dims, by contrast, are legitimate —
// a ragged domain's empty sample serializes as header-only).
func decodeTensorHeader(enc []byte, dims tensor.Shape) (tensor.DType, tensor.Shape, error) {
	if len(enc) < 7 {
		return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("truncated at %d bytes", len(enc))}
	}
	if m := binary.LittleEndian.Uint32(enc); m != blobMagic {
		return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("bad magic %#x", m)}
	}
	if v := enc[4]; v != blobVersion {
		return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	dt := tensor.DType(enc[5])
	if dt != tensor.F32 && dt != tensor.F16 && dt != tensor.I16 {
		return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("unknown dtype %d", int(dt))}
	}
	rank := int(enc[6])
	if rank == 0 {
		return 0, nil, &BlobFormatError{Reason: "rank-0 shape (the encoder never emits scalars)"}
	}
	if len(enc) < 7+4*rank {
		return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("header truncated (rank %d, %d bytes)", rank, len(enc))}
	}
	shape := dims[:0]
	elems := uint64(1)
	for i := 0; i < rank; i++ {
		d := binary.LittleEndian.Uint32(enc[7+4*i:])
		if d != 0 && elems > uint64(len(enc))/uint64(d) {
			return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("dims overflow the %d-byte payload at axis %d", len(enc), i)}
		}
		elems *= uint64(d)
		shape = append(shape, int(d))
	}
	if want := 7 + 4*rank + int(elems)*dt.Size(); len(enc) != want {
		return 0, nil, &BlobFormatError{Reason: fmt.Sprintf("%d bytes, want %d for %s%v", len(enc), want, dt, shape.Clone())}
	}
	return dt, shape, nil
}

// maxStackRank is the rank up to which a header's dims decode into a stack
// array; every sample domain here is rank 4 or less.
const maxStackRank = 8

// decodeTensorInto deserializes enc into dst, which must already have the
// header's dtype and shape (the caller sized it via decodeTensorHeader).
// The payload copies a 64-bit word at a time.
func decodeTensorInto(dst *tensor.Tensor, enc []byte) error {
	var dims [maxStackRank]int
	dt, shape, err := decodeTensorHeader(enc, dims[:0])
	if err != nil {
		return err
	}
	if dst.DT != dt || !dst.Shape.Equal(shape) {
		return fmt.Errorf("dataserve: destination %s%v does not match payload %s%v", dst.DT, dst.Shape, dt, shape.Clone())
	}
	p := enc[7+4*len(shape):]
	switch dt {
	case tensor.F32:
		getF32s(dst.F32s, p)
	case tensor.F16:
		get16s(dst.F16s, p)
	case tensor.I16:
		get16s(dst.I16s, p)
	}
	return nil
}

// put16s writes src little-endian into p, four elements per 64-bit store.
func put16s[T ~uint16 | ~int16](p []byte, src []T) {
	p = p[:2*len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		binary.LittleEndian.PutUint64(p[2*i:], uint64(uint16(s[0]))|uint64(uint16(s[1]))<<16|uint64(uint16(s[2]))<<32|uint64(uint16(s[3]))<<48)
	}
	for ; i < len(src); i++ {
		binary.LittleEndian.PutUint16(p[2*i:], uint16(src[i]))
	}
}

// get16s reads dst's elements little-endian from p, four per 64-bit load.
func get16s[T ~uint16 | ~int16](dst []T, p []byte) {
	p = p[:2*len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		w := binary.LittleEndian.Uint64(p[2*i:])
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = T(w), T(w>>16), T(w>>32), T(w>>48)
	}
	for ; i < len(dst); i++ {
		dst[i] = T(binary.LittleEndian.Uint16(p[2*i:]))
	}
}

// putF32s writes src's bits little-endian into p, two elements per 64-bit
// store.
func putF32s(p []byte, src []float32) {
	p = p[:4*len(src)]
	i := 0
	for ; i+2 <= len(src); i += 2 {
		s := src[i : i+2 : i+2]
		binary.LittleEndian.PutUint64(p[4*i:], uint64(math.Float32bits(s[0]))|uint64(math.Float32bits(s[1]))<<32)
	}
	if i < len(src) {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(src[i]))
	}
}

// getF32s reads dst's bits little-endian from p, two per 64-bit load.
func getF32s(dst []float32, p []byte) {
	p = p[:4*len(dst)]
	i := 0
	for ; i+2 <= len(dst); i += 2 {
		w := binary.LittleEndian.Uint64(p[4*i:])
		d := dst[i : i+2 : i+2]
		d[0], d[1] = math.Float32frombits(uint32(w)), math.Float32frombits(uint32(w>>32))
	}
	if i < len(dst) {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
}
