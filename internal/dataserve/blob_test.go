package dataserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"scipp/internal/fp16"
	"scipp/internal/tensor"
)

// blobSamples covers every dtype the cache payload supports, including
// non-finite float bit patterns that must survive exactly (NaN payloads,
// negative zero, infinities): the serialization preserves element bits,
// never values.
func blobSamples() []*tensor.Tensor {
	return []*tensor.Tensor{
		tensor.FromF32([]float32{
			0, -0.0 * -1, 1.5, -2.25,
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7FC00001), // NaN with a payload bit set
			math.Float32frombits(0x80000000), // -0
		}, 2, 4),
		tensor.FromF16([]fp16.Bits{0x0000, 0x8000, 0x3C00, 0x7E01, 0xFC00, 0x0001}, 6),
		tensor.FromI16([]int16{-32768, -1, 0, 1, 32767, 12345}, 3, 2),
		tensor.FromF32([]float32{42}, 1), // rank-0-adjacent: single element, rank 1
		tensor.New(tensor.F32, 2, 0),     // ragged empty sample: header-only payload
	}
}

func TestBlobRoundTrip(t *testing.T) {
	for _, src := range blobSamples() {
		enc := encodeTensor(src)
		if len(enc) != encodedSize(src) {
			t.Errorf("%s%v: encoded %d bytes, encodedSize says %d", src.DT, src.Shape, len(enc), encodedSize(src))
		}
		dt, shape, err := decodeTensorHeader(enc, nil)
		if err != nil {
			t.Fatalf("%s%v: header: %v", src.DT, src.Shape, err)
		}
		if dt != src.DT || !shape.Equal(src.Shape) {
			t.Fatalf("%s%v: header decoded as %s%v", src.DT, src.Shape, dt, shape)
		}
		dst := tensor.New(dt, shape...)
		if err := decodeTensorInto(dst, enc); err != nil {
			t.Fatalf("%s%v: decode: %v", src.DT, src.Shape, err)
		}
		// Compare raw element bits, not values: NaN != NaN under ==.
		if !bytes.Equal(encodeTensor(dst), enc) {
			t.Errorf("%s%v: round trip not bit-identical", src.DT, src.Shape)
		}
	}
}

func TestBlobHeaderErrors(t *testing.T) {
	good := encodeTensor(tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2))
	corrupt := func(mutate func([]byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := []struct {
		name string
		enc  []byte
	}{
		{"empty", nil},
		{"short header", good[:5]},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 99; return b })},
		{"bad dtype", corrupt(func(b []byte) []byte { b[5] = 0xEE; return b })},
		{"rank overruns", corrupt(func(b []byte) []byte { b[6] = 40; return b })},
		{"truncated payload", good[:len(good)-2]},
		{"oversized payload", append(append([]byte(nil), good...), 0, 0)},
		{"dim mismatch", corrupt(func(b []byte) []byte { b[7] = 3; return b })},
	}
	for _, tc := range cases {
		if _, _, err := decodeTensorHeader(tc.enc, nil); err == nil {
			t.Errorf("%s: decodeTensorHeader accepted corrupt payload", tc.name)
		}
		dst := tensor.New(tensor.F32, 2, 2)
		if err := decodeTensorInto(dst, tc.enc); err == nil {
			t.Errorf("%s: decodeTensorInto accepted corrupt payload", tc.name)
		}
	}
}

func TestBlobDecodeIntoMismatch(t *testing.T) {
	enc := encodeTensor(tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2))
	if err := decodeTensorInto(tensor.New(tensor.F32, 4), enc); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := decodeTensorInto(tensor.New(tensor.I16, 2, 2), enc); err == nil {
		t.Error("dtype mismatch accepted")
	}
}

// TestBlobHeaderRejectsRank0AndOverflow pins the hardening the FuzzBlobDecode
// crashers forced: scalar headers and dims whose byte size wraps int are
// refused with a typed error before any allocation is sized from them, while
// a ragged domain's legitimate empty sample (zero-length dim) round-trips.
func TestBlobHeaderRejectsRank0AndOverflow(t *testing.T) {
	for name, enc := range map[string][]byte{
		"rank-0 scalar": rank0Payload(),
		"dims int wrap": dimsWrapPayload(),
	} {
		_, _, err := decodeTensorHeader(enc, nil)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		var fe *BlobFormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s rejected with untyped error %v", name, err)
		}
	}

	empty := tensor.New(tensor.F32, 2, 0)
	enc := encodeTensor(empty)
	dt, shape, err := decodeTensorHeader(enc, nil)
	if err != nil {
		t.Fatalf("empty ragged sample rejected: %v", err)
	}
	if dt != tensor.F32 || !shape.Equal(tensor.Shape{2, 0}) {
		t.Fatalf("empty sample header = %s%v", dt, shape)
	}
	if err := decodeTensorInto(tensor.New(dt, shape...), enc); err != nil {
		t.Fatalf("empty sample decode: %v", err)
	}
}

// TestBlobPayloadLayout pins the payload bytes against a one-element-at-a-
// time little-endian reference for every length around the word-wise
// loops' four- and two-element strides, so the tail handling of each dtype
// is covered and a decode restores every element bit.
func TestBlobPayloadLayout(t *testing.T) {
	for n := 0; n <= 9; n++ {
		f16s := make([]fp16.Bits, n)
		i16s := make([]int16, n)
		f32s := make([]float32, n)
		var want16, wantI16, want32 []byte
		for i := 0; i < n; i++ {
			f16s[i] = fp16.Bits(0x8001 + 0x1357*i)
			i16s[i] = int16(-7 - 4099*i)
			f32s[i] = math.Float32frombits(0x7FC00001 + 0x01020304*uint32(i))
			want16 = binary.LittleEndian.AppendUint16(want16, uint16(f16s[i]))
			wantI16 = binary.LittleEndian.AppendUint16(wantI16, uint16(i16s[i]))
			want32 = binary.LittleEndian.AppendUint32(want32, math.Float32bits(f32s[i]))
		}
		for _, tc := range []struct {
			src  *tensor.Tensor
			want []byte
		}{
			{tensor.FromF16(f16s, n), want16},
			{tensor.FromI16(i16s, n), wantI16},
			{tensor.FromF32(f32s, n), want32},
		} {
			enc := encodeTensor(tc.src)
			if got := enc[7+4:]; !bytes.Equal(got, tc.want) {
				t.Fatalf("%s[%d]: payload % x, want % x", tc.src.DT, n, got, tc.want)
			}
			dst := tensor.New(tc.src.DT, n)
			if err := decodeTensorInto(dst, enc); err != nil {
				t.Fatalf("%s[%d]: decode: %v", tc.src.DT, n, err)
			}
			// The encoder is pinned above, so re-encoding checks every
			// decoded element's bits.
			if got := encodeTensor(dst)[7+4:]; !bytes.Equal(got, tc.want) {
				t.Fatalf("%s[%d]: decoded payload % x, want % x", tc.src.DT, n, got, tc.want)
			}
		}
	}
}
