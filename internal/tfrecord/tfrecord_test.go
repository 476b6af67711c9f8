package tfrecord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 100000),
		[]byte{0},
	}
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(records) {
		t.Errorf("Count = %d, want %d", w.Count(), len(records))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestGzipRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewGzipWriter(&buf)
	payload := bytes.Repeat([]byte("cosmoflow-voxels"), 1000)
	for i := 0; i < 10; i++ {
		if err := w.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	plainSize := 10 * (len(payload) + 16)
	if buf.Len() >= plainSize {
		t.Errorf("gzip stream (%d bytes) not smaller than plain (%d)", buf.Len(), plainSize)
	}
	r, err := NewGzipReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || !bytes.Equal(got[0], payload) {
		t.Error("gzip round trip mismatch")
	}
}

func TestWireFormat(t *testing.T) {
	// Verify exact framing against the TFRecord spec for a known payload.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) != 8+4+3+4 {
		t.Fatalf("frame length %d, want 19", len(raw))
	}
	if binary.LittleEndian.Uint64(raw[:8]) != 3 {
		t.Error("length field wrong")
	}
	// Masked CRC of the length bytes must verify.
	if maskedCRC(raw[:8]) != binary.LittleEndian.Uint32(raw[8:12]) {
		t.Error("length CRC wrong")
	}
	if maskedCRC([]byte("abc")) != binary.LittleEndian.Uint32(raw[15:19]) {
		t.Error("data CRC wrong")
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write([]byte("important-science")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{0, 9, 14, buf.Len() - 1} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[flip] ^= 0x01
		r := NewReader(bytes.NewReader(raw))
		_, err := r.Next()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", flip, err)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{4, 12, 40, len(raw) - 2} {
		r := NewReader(bytes.NewReader(raw[:cut]))
		_, err := r.Next()
		if err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Clean EOF at a record boundary is io.EOF, not corruption.
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("at boundary: err = %v, want io.EOF", err)
	}
}

func TestEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(recs [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := ReadAll(NewReader(&buf))
		if err != nil || len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	payload := bytes.Repeat([]byte{0x42}, 1<<16)
	b.SetBytes(int64(len(payload)))
	w := NewWriter(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payload := bytes.Repeat([]byte{0x42}, 1<<16)
	for i := 0; i < 64; i++ {
		if err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	raw := buf.Bytes()
	b.SetBytes(int64(len(payload) * 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAll(NewReader(bytes.NewReader(raw))); err != nil {
			b.Fatal(err)
		}
	}
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }
