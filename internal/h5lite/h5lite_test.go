package h5lite

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"scipp/internal/fp16"
	"scipp/internal/tensor"
)

func sampleFile() *File {
	f := NewFile()
	f.Attrs["source"] = "cam5-synthetic"
	f.Attrs["version"] = "1"
	data := tensor.New(tensor.F32, 2, 3, 4)
	for i := range data.F32s {
		data.F32s[i] = float32(i) * 0.25
	}
	f.Put("climate/data", data)
	label := tensor.New(tensor.I16, 3, 4)
	for i := range label.I16s {
		label.I16s[i] = int16(i % 3)
	}
	f.Put("climate/labels", label)
	h := tensor.New(tensor.F16, 5)
	for i := range h.F16s {
		h.F16s[i] = fp16.FromFloat32(float32(i) * 1.5)
	}
	f.Put("half", h)
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Attrs["source"] != "cam5-synthetic" || g.Attrs["version"] != "1" {
		t.Error("attrs lost")
	}
	wantNames := []string{"climate/data", "climate/labels", "half"}
	names := g.Names()
	if len(names) != len(wantNames) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Errorf("name[%d] = %q, want %q", i, names[i], n)
		}
	}
	orig, _ := f.Get("climate/data")
	got, ok := g.Get("climate/data")
	if !ok {
		t.Fatal("dataset missing after round trip")
	}
	if !got.Shape.Equal(orig.Shape) || got.DT != orig.DT {
		t.Fatalf("shape/dtype mismatch: %v %v", got.Shape, got.DT)
	}
	if tensor.MaxAbsDiff(orig, got) != 0 {
		t.Error("F32 payload mismatch")
	}
	lab, _ := g.Get("climate/labels")
	if lab.I16s[5] != int16(5%3) {
		t.Error("I16 payload mismatch")
	}
	hOrig, _ := f.Get("half")
	hGot, _ := g.Get("half")
	for i := range hOrig.F16s {
		if hOrig.F16s[i] != hGot.F16s[i] {
			t.Fatal("F16 payload mismatch")
		}
	}
}

func TestFileIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sample.h5l")
	f := sampleFile()
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Names()) != 3 {
		t.Errorf("datasets after file IO: %v", g.Names())
	}
}

func TestCorruptPayloadDetected(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte near the end (inside the last dataset payload).
	raw[len(raw)-3] ^= 0xFF
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE----"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncated(t *testing.T) {
	f := sampleFile()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{2, 8, 20, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	f := NewFile()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Names()) != 0 || len(g.Attrs) != 0 {
		t.Error("empty file round trip not empty")
	}
}

func TestPutReplaces(t *testing.T) {
	f := NewFile()
	f.Put("x", tensor.New(tensor.F32, 2))
	f.Put("x", tensor.New(tensor.F32, 3))
	got, _ := f.Get("x")
	if got.Elems() != 3 {
		t.Error("Put did not replace dataset")
	}
}

func TestGetMissing(t *testing.T) {
	f := NewFile()
	if _, ok := f.Get("nothing"); ok {
		t.Error("Get on missing dataset returned ok")
	}
}

func BenchmarkWriteRead(b *testing.B) {
	f := NewFile()
	data := tensor.New(tensor.F32, 16, 128, 128)
	for i := range data.F32s {
		data.F32s[i] = float32(i % 251)
	}
	f.Put("data", data)
	b.SetBytes(int64(data.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
