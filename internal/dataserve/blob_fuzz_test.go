package dataserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"scipp/internal/tensor"
)

// rank0Payload and dimsWrapPayload rebuild the two header-hardening
// crashers (also committed under testdata/fuzz/FuzzBlobDecode as regression
// seeds): a scalar payload the old header logic happily decoded, and a
// {1<<31, 1<<31} dims pair whose byte size wraps int to 0 so a 15-byte
// payload passed the old length check and sized a 2^62-element allocation.
func rank0Payload() []byte {
	b := binary.LittleEndian.AppendUint32(nil, blobMagic)
	b = append(b, blobVersion, byte(tensor.F32), 0)
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(42))
}

func dimsWrapPayload() []byte {
	b := binary.LittleEndian.AppendUint32(nil, blobMagic)
	b = append(b, blobVersion, byte(tensor.F32), 2)
	b = binary.LittleEndian.AppendUint32(b, 1<<31)
	return binary.LittleEndian.AppendUint32(b, 1<<31)
}

// FuzzBlobDecode hardens the cache-payload decoder against arbitrary bytes.
// Three invariants:
//
//  1. every rejection is a typed *BlobFormatError — materialization failures
//     must stay distinguishable from decode failures;
//  2. an accepted header proves its own bound: rank >= 1 and element bytes
//     that fit inside the payload, so sizing an allocation from it is safe;
//  3. every accepted payload round-trips bit-identically through
//     decodeTensorInto and encodeTensor.
func FuzzBlobDecode(f *testing.F) {
	for _, src := range blobSamples() {
		f.Add(encodeTensor(src))
	}
	f.Add(encodeTensor(tensor.New(tensor.F32, 2, 0))) // ragged empty sample
	f.Add(rank0Payload())
	f.Add(dimsWrapPayload())
	f.Fuzz(func(t *testing.T, enc []byte) {
		dt, shape, err := decodeTensorHeader(enc, nil)
		if err != nil {
			var fe *BlobFormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a *BlobFormatError: %v", err)
			}
			return
		}
		if len(shape) == 0 {
			t.Fatalf("rank-0 header accepted: %s%v", dt, shape)
		}
		if shape.Elems()*dt.Size() > len(enc) {
			t.Fatalf("accepted header %s%v describes more bytes than the %d-byte payload", dt, shape, len(enc))
		}
		dst := tensor.New(dt, shape...)
		if err := decodeTensorInto(dst, enc); err != nil {
			t.Fatalf("header accepted but decode failed: %v", err)
		}
		if !bytes.Equal(encodeTensor(dst), enc) {
			t.Fatalf("accepted payload %s%v does not round-trip bit-identically", dt, shape)
		}
	})
}
