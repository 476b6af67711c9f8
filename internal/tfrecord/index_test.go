package tfrecord

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeTestFile(t *testing.T, records [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "recs.tfrecord")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testRecords(n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, bytes.Repeat([]byte{byte(i)}, 10+i*7))
	}
	return out
}

func TestBuildIndex(t *testing.T) {
	records := testRecords(5)
	path := writeTestFile(t, records)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ix, err := BuildIndex(f)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 5 {
		t.Fatalf("index has %d records, want 5", ix.Len())
	}
	// Offsets must account for the 16-byte framing per record.
	want := int64(0)
	for i, rec := range records {
		if ix.Offsets[i] != want {
			t.Errorf("offset[%d] = %d, want %d", i, ix.Offsets[i], want)
		}
		want += int64(len(rec)) + 16
	}
	if ix.Offsets[5] != want {
		t.Errorf("final offset %d, want file size %d", ix.Offsets[5], want)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	path := writeTestFile(t, testRecords(4))
	f, _ := os.Open(path)
	ix, err := BuildIndex(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back.Offsets) != fmt.Sprint(ix.Offsets) {
		t.Errorf("index round trip: %v vs %v", back.Offsets, ix.Offsets)
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Error("empty index accepted")
	}
	// Non-increasing offsets.
	var buf bytes.Buffer
	ix := &Index{Offsets: []int64{0, 5, 5}}
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(&buf); err == nil {
		t.Error("non-increasing offsets accepted")
	}
	// First offset nonzero.
	buf.Reset()
	ix = &Index{Offsets: []int64{4, 8}}
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(&buf); err == nil {
		t.Error("nonzero first offset accepted")
	}
}

func TestIndexedRandomAccess(t *testing.T) {
	records := testRecords(8)
	path := writeTestFile(t, records)
	x, err := OpenIndexed(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.Len() != 8 {
		t.Fatalf("Len = %d", x.Len())
	}
	// Access out of order.
	for _, i := range []int{7, 0, 3, 5, 3} {
		got, err := x.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, records[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := x.Record(8); err == nil {
		t.Error("out-of-range record accepted")
	}
	if _, err := x.Record(-1); err == nil {
		t.Error("negative record accepted")
	}
}

func TestIndexedWithSidecar(t *testing.T) {
	records := testRecords(3)
	path := writeTestFile(t, records)
	// Build + persist index.
	x, err := OpenIndexed(path, "")
	if err != nil {
		t.Fatal(err)
	}
	idxPath := path + ".idx"
	idxF, err := os.Create(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Index().WriteTo(idxF); err != nil {
		t.Fatal(err)
	}
	idxF.Close()
	x.Close()
	// Reopen through the sidecar.
	y, err := OpenIndexed(path, idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	got, err := y.Record(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, records[2]) {
		t.Error("sidecar-indexed read mismatch")
	}
}

func TestIndexedDetectsCorruption(t *testing.T) {
	records := testRecords(2)
	path := writeTestFile(t, records)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xFF // inside record 0's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := OpenIndexed(path, "")
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if _, err := x.Record(0); err == nil {
		t.Error("corrupt record accepted")
	}
	// Record 1 is untouched and still reads.
	if _, err := x.Record(1); err != nil {
		t.Errorf("clean record failed: %v", err)
	}
}

func TestBuildIndexOnCorruptStream(t *testing.T) {
	if _, err := BuildIndex(bytes.NewReader([]byte("garbage-not-a-record"))); err == nil {
		t.Error("corrupt stream indexed")
	}
}

// Index returns the underlying index (for persisting via WriteTo).
func (x *IndexedFile) Index() *Index { return x.ix }
