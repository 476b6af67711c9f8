package tfrecord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Index maps record ordinals to byte ranges in an (uncompressed) TFRecord
// file, enabling random access — exactly the sidecar ".idx" files NVIDIA
// DALI requires next to TFRecord shards so its readers can shuffle and
// shard without scanning. Gzip-compressed streams cannot be indexed (no
// random access into a deflate stream), matching DALI's constraint.
type Index struct {
	// Offsets[i] is the file offset of record i's frame; Offsets[n] is the
	// file size, so record i spans [Offsets[i], Offsets[i+1]).
	Offsets []int64
}

// Len returns the number of records.
func (ix *Index) Len() int {
	if len(ix.Offsets) == 0 {
		return 0
	}
	return len(ix.Offsets) - 1
}

// BuildIndex scans a plain TFRecord stream and produces its index. The
// reader must be positioned at the start of the stream.
func BuildIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	ix := &Index{Offsets: []int64{0}}
	var pos int64
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return ix, nil
			}
			return nil, ErrCorrupt
		}
		length := binary.LittleEndian.Uint64(hdr[:8])
		if maskedCRC(hdr[:8]) != binary.LittleEndian.Uint32(hdr[8:]) {
			return nil, ErrCorrupt
		}
		frame := int64(12) + int64(length) + 4
		if _, err := io.CopyN(io.Discard, br, int64(length)+4); err != nil {
			return nil, ErrCorrupt
		}
		pos += frame
		ix.Offsets = append(ix.Offsets, pos)
	}
}

// WriteTo serializes the index (little-endian count + offsets).
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(ix.Offsets)))
	if _, err := bw.Write(buf[:]); err != nil {
		return 0, err
	}
	n := int64(8)
	for _, off := range ix.Offsets {
		binary.LittleEndian.PutUint64(buf[:], uint64(off))
		if _, err := bw.Write(buf[:]); err != nil {
			return n, err
		}
		n += 8
	}
	return n, bw.Flush()
}

// ReadIndex parses an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("tfrecord: reading index header: %w", err)
	}
	n := binary.LittleEndian.Uint64(buf[:])
	const maxEntries = 1 << 30
	if n < 1 || n > maxEntries {
		return nil, fmt.Errorf("tfrecord: implausible index entry count %d", n)
	}
	ix := &Index{Offsets: make([]int64, n)}
	prev := int64(-1)
	for i := range ix.Offsets {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("tfrecord: truncated index: %w", err)
		}
		off := int64(binary.LittleEndian.Uint64(buf[:]))
		if off <= prev {
			return nil, errors.New("tfrecord: index offsets not strictly increasing")
		}
		ix.Offsets[i] = off
		prev = off
	}
	if ix.Offsets[0] != 0 {
		return nil, errors.New("tfrecord: index must start at offset 0")
	}
	return ix, nil
}

// IndexedFile provides random access to records of an on-disk TFRecord
// file through its index.
type IndexedFile struct {
	f  *os.File
	ix *Index
}

// OpenIndexed opens path and builds (or loads from idxPath, if non-empty
// and existing) its index.
func OpenIndexed(path, idxPath string) (*IndexedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var ix *Index
	if idxPath != "" {
		if idxF, err := os.Open(idxPath); err == nil {
			ix, err = ReadIndex(idxF)
			//lint:ignore uncheckederr the index file is read-only; a close error cannot lose data
			idxF.Close()
			if err != nil {
				//lint:ignore uncheckederr best-effort cleanup; the index read error already propagates
				f.Close()
				return nil, err
			}
		}
	}
	if ix == nil {
		ix, err = BuildIndex(f)
		if err != nil {
			//lint:ignore uncheckederr best-effort cleanup; the index build error already propagates
			f.Close()
			return nil, err
		}
	}
	return &IndexedFile{f: f, ix: ix}, nil
}

// Len returns the record count.
func (x *IndexedFile) Len() int { return x.ix.Len() }

// Record reads record i, verifying its checksums.
func (x *IndexedFile) Record(i int) ([]byte, error) {
	if i < 0 || i >= x.ix.Len() {
		return nil, fmt.Errorf("tfrecord: record %d out of %d", i, x.ix.Len())
	}
	start := x.ix.Offsets[i]
	size := x.ix.Offsets[i+1] - start
	frame := make([]byte, size)
	if _, err := x.f.ReadAt(frame, start); err != nil {
		return nil, fmt.Errorf("tfrecord: reading record %d: %w", i, err)
	}
	if size < 16 {
		return nil, ErrCorrupt
	}
	length := binary.LittleEndian.Uint64(frame[:8])
	if int64(length)+16 != size {
		return nil, ErrCorrupt
	}
	if maskedCRC(frame[:8]) != binary.LittleEndian.Uint32(frame[8:12]) {
		return nil, ErrCorrupt
	}
	data := frame[12 : 12+length]
	if maskedCRC(data) != binary.LittleEndian.Uint32(frame[12+length:]) {
		return nil, ErrCorrupt
	}
	return data, nil
}

// Close releases the file.
func (x *IndexedFile) Close() error { return x.f.Close() }
