package tensor

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"scipp/internal/fp16"
)

// leCase drives the codec checks for one element type: its size in bytes
// and its bit pattern, so the reference below never goes through a float.
type leCase[E Element] struct {
	size int
	bits func(E) uint64
}

// refEncode is the per-element reference: each element's bit pattern,
// least significant byte first.
func (c leCase[E]) refEncode(vals []E) []byte {
	var out []byte
	for _, v := range vals {
		b := c.bits(v)
		for k := 0; k < c.size; k++ {
			out = append(out, byte(b>>(8*k)))
		}
	}
	return out
}

// check runs both bodies of DecodeLE and AppendLE over vals, decoding from
// a source at an odd offset and appending after a non-empty prefix, and
// compares every result bit for bit against the reference.
func (c leCase[E]) check(t *testing.T, vals []E) {
	t.Helper()
	want := c.refEncode(vals)
	buf := append([]byte{0xA5}, want...)
	buf = append(buf, 0x5A, 0x5A, 0x5A) // trailing bytes are ignored
	src := buf[1:]
	decoders := map[string]func([]E, []byte){"DecodeLE": DecodeLE[E], "portable": decodeLEPortable[E]}
	for name, decode := range decoders {
		dst := make([]E, len(vals))
		decode(dst, src)
		if got := c.refEncode(dst); !bytes.Equal(got, want) {
			t.Errorf("%s of %d elements: bits % x, want % x", name, len(vals), got, want)
		}
	}
	appenders := map[string]func([]byte, []E) []byte{"AppendLE": AppendLE[E], "portable": appendLEPortable[E]}
	for name, appendLE := range appenders {
		got := appendLE([]byte{0xC3}, vals)
		if got[0] != 0xC3 || !bytes.Equal(got[1:], want) {
			t.Errorf("%s of %d elements: % x, want c3 % x", name, len(vals), got, want)
		}
	}
}

var (
	f32Case = leCase[float32]{4, func(v float32) uint64 { return uint64(math.Float32bits(v)) }}
	f16Case = leCase[fp16.Bits]{2, func(v fp16.Bits) uint64 { return uint64(v) }}
	i16Case = leCase[int16]{2, func(v int16) uint64 { return uint64(uint16(v)) }}
)

// The special values: signaling and quiet NaNs with payloads (either sign),
// ±0, the smallest and largest subnormals, ±Inf, and ordinary values.
var (
	f32Bits = []uint32{
		0x7F800001, 0xFFA00001, 0x7FC00000, 0x7FC12345, 0xFFFFFFFF,
		0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,
		0x7F800000, 0xFF800000, 0x3F800000, 0xC2F6E979, 0x7F7FFFFF,
	}
	f16Bits = []fp16.Bits{
		0x7C01, 0xFE01, 0x7E00, 0x7FFF, 0x0000, 0x8000, 0x0001, 0x83FF,
		0x7C00, 0xFC00, 0x3C00, 0xC500, 0x7BFF,
	}
	i16Vals = []int16{0, 1, -1, math.MinInt16, math.MaxInt16, 0x0100, -0x0100, 0x1234}
)

func TestLittleEndianCodec(t *testing.T) {
	f32 := make([]float32, len(f32Bits))
	for i, b := range f32Bits {
		f32[i] = math.Float32frombits(b)
	}
	for n := 0; n <= 9; n++ {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			f32Case.check(t, cycle(f32, n))
			f16Case.check(t, cycle(f16Bits, n))
			i16Case.check(t, cycle(i16Vals, n))
		})
	}
	t.Run("specials", func(t *testing.T) {
		f32Case.check(t, f32)
		f16Case.check(t, f16Bits)
		i16Case.check(t, i16Vals)
	})
}

// cycle returns n elements drawn from vals in turn.
func cycle[E Element](vals []E, n int) []E {
	out := make([]E, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return out
}

func TestDecodeLEShortSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DecodeLE of 2 floats from 7 bytes did not panic")
		}
	}()
	DecodeLE(make([]float32, 2), make([]byte, 7))
}

// FuzzDecodeLE reads arbitrary bytes, from an arbitrary offset, as each
// element type through both bodies and checks that re-encoding restores the
// bytes exactly.
func FuzzDecodeLE(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x80, 0x7F, 0x00, 0x00, 0xC0, 0xFF, 0x01}, uint8(1))
	f.Add([]byte{0x01, 0x7C, 0x00, 0x80, 0xFF, 0x03}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		if len(data) > 0 {
			data = data[int(off)%len(data):]
		}
		f32Case.fuzzOne(t, data)
		f16Case.fuzzOne(t, data)
		i16Case.fuzzOne(t, data)
	})
}

// fuzzOne decodes as many whole elements as data holds and checks them
// against the reference, then encodes them back.
func (c leCase[E]) fuzzOne(t *testing.T, data []byte) {
	vals := make([]E, len(data)/c.size)
	decodeLEPortable(vals, data)
	if got, want := c.refEncode(vals), data[:len(vals)*c.size]; !bytes.Equal(got, want) {
		t.Fatalf("portable decode: bits % x, want % x", got, want)
	}
	c.check(t, vals)
}

// BenchmarkDecodeLE decodes a little-endian FP32 payload next to its bound,
// a copy of the same bytes, and the per-element loop the codec replaces, at
// a mean weather-station sample's size (4 channels × 128 observations,
// 2 KiB) and at 256 KiB.
func BenchmarkDecodeLE(b *testing.B) {
	for _, n := range []int{512, 64 << 10} {
		src := make([]byte, 4*n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		dst := make([]float32, n)
		raw := make([]byte, 4*n)
		for _, body := range []struct {
			name string
			run  func()
		}{
			{"DecodeLE", func() { DecodeLE(dst, src) }},
			{"copy", func() { copy(raw, src) }},
			{"portable", func() { decodeLEPortable(dst, src) }},
		} {
			b.Run(fmt.Sprintf("%s/%dB", body.name, len(src)), func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				for i := 0; i < b.N; i++ {
					body.run()
				}
				b.ReportMetric(float64(len(src))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
