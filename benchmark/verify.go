package main

import (
	"fmt"
	"math"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// probeN is how many strided elements of each sample a timed epoch checks.
const probeN = 16

// reference holds what every delivered sample is checked against: the
// result of decoding each blob serially with codec.Decode, outside the
// system under test.
type reference struct {
	// digest is an FNV-1a style fold over the sample's element bits.
	digest []uint64
	// probe holds the element bits at probeN strided positions.
	probe [][probeN]uint32
	elems []int
	// decodedBytes and labelBytes total the decoded tensors and labels:
	// the working set a decoded-sample cache has to hold.
	decodedBytes, labelBytes int64
	dtype                    tensor.DType
	// shape is the largest decoded shape, for the pool ladder.
	shape tensor.Shape
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// elemBits returns element i of t as raw bits.
func elemBits(t *tensor.Tensor, i int) uint32 {
	switch t.DT {
	case tensor.F32:
		return math.Float32bits(t.F32s[i])
	case tensor.F16:
		return uint32(t.F16s[i])
	default:
		return uint32(uint16(t.I16s[i]))
	}
}

func tensorDigest(t *tensor.Tensor) uint64 {
	h := uint64(fnvOffset)
	n := t.Elems()
	for i := 0; i < n; i++ {
		h = (h ^ uint64(elemBits(t, i))) * fnvPrime
	}
	return h
}

// probePos is the k-th strided probe position in a sample of n elements.
func probePos(k, n int) int { return k * (n - 1) / (probeN - 1) }

func buildReference(ds *pipeline.MemDataset, f codec.Format) (*reference, error) {
	n := ds.Len()
	ref := &reference{digest: make([]uint64, n), probe: make([][probeN]uint32, n), elems: make([]int, n)}
	for i, blob := range ds.Blobs {
		cd, err := f.Open(blob)
		if err != nil {
			return nil, fmt.Errorf("reference decode of sample %d: %w", i, err)
		}
		t, err := codec.Decode(cd)
		codec.Recycle(cd)
		if err != nil {
			return nil, fmt.Errorf("reference decode of sample %d: %w", i, err)
		}
		ref.digest[i] = tensorDigest(t)
		ref.elems[i] = t.Elems()
		for k := 0; k < probeN && ref.elems[i] > 0; k++ {
			ref.probe[i][k] = elemBits(t, probePos(k, ref.elems[i]))
		}
		ref.decodedBytes += int64(t.Bytes())
		ref.labelBytes += int64(ds.Labels[i].Bytes())
		ref.dtype = t.DT
		if ref.shape == nil || t.Elems() > ref.shape.Elems() {
			ref.shape = t.Shape.Clone()
		}
	}
	return ref, nil
}

// checkSample reports whether delivered tensor t is sample index: by full
// digest when full, by the strided probe otherwise.
func (r *reference) checkSample(index int, t *tensor.Tensor, full bool) bool {
	n := t.Elems()
	if n != r.elems[index] || t.DT != r.dtype {
		return false
	}
	if full {
		return tensorDigest(t) == r.digest[index]
	}
	for k := 0; k < probeN && n > 0; k++ {
		if elemBits(t, probePos(k, n)) != r.probe[index][k] {
			return false
		}
	}
	return true
}

// checkPadded is checkSample for row i of a padded batch: the sample's
// [lead, L] elements sit in the first L columns of each of its lead rows.
// A full check also requires zero padding and an exact mask.
func (r *reference) checkPadded(index int, pb *pipeline.PaddedBatch, i int, full bool) bool {
	shape := pb.Data.Shape
	maxLen := shape[len(shape)-1]
	lead := 1
	for _, d := range shape[1 : len(shape)-1] {
		lead *= d
	}
	l := pb.Lengths[i]
	n := lead * l
	if n != r.elems[index] || l > maxLen {
		return false
	}
	base := i * lead * maxLen
	at := func(e int) uint32 { return math.Float32bits(pb.Data.F32s[base+e/l*maxLen+e%l]) }
	if !full {
		for k := 0; k < probeN && n > 0; k++ {
			if at(probePos(k, n)) != r.probe[index][k] {
				return false
			}
		}
		return true
	}
	h := uint64(fnvOffset)
	for row := 0; row < lead; row++ {
		cols := pb.Data.F32s[base+row*maxLen : base+(row+1)*maxLen]
		for _, v := range cols[:l] {
			h = (h ^ uint64(math.Float32bits(v))) * fnvPrime
		}
		for _, v := range cols[l:] {
			if math.Float32bits(v) != 0 {
				return false
			}
		}
	}
	for t, m := range pb.Mask.F32s[i*maxLen : (i+1)*maxLen] {
		if (t < l) != (m == 1) || (t >= l && m != 0) {
			return false
		}
	}
	return h == r.digest[index]
}
