// Package tfrecord implements the TFRecord container format used by the
// CosmoFlow benchmark dataset, wire-compatible with TensorFlow's
// implementation: each record is framed as
//
//	uint64 length (little endian)
//	uint32 masked CRC32-C of the length bytes
//	byte   data[length]
//	uint32 masked CRC32-C of the data
//
// plus the optional whole-file gzip compression variant that the standard
// benchmark distributes ("the latest release of the dataset provides a
// compressed variant of the dataset using gzip", §IV).
package tfrecord

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt is returned when a record fails its checksum.
var ErrCorrupt = errors.New("tfrecord: corrupt record (CRC mismatch)")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maskedCRC computes the TFRecord masked CRC32-C:
// ((crc >> 15) | (crc << 17)) + 0xa282ead8.
func maskedCRC(b []byte) uint32 {
	c := crc32.Checksum(b, castagnoli)
	return ((c >> 15) | (c << 17)) + 0xa282ead8
}

// Writer writes TFRecord framing to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	gz  *gzip.Writer
	n   int
	hdr [12]byte
	ftr [4]byte
}

// NewWriter returns a Writer emitting plain (uncompressed) records.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// NewGzipWriter returns a Writer whose whole output stream is gzip
// compressed, matching TFRecordOptions(compression_type="GZIP").
func NewGzipWriter(w io.Writer) *Writer {
	gz := gzip.NewWriter(w)
	return &Writer{w: bufio.NewWriter(gz), gz: gz}
}

// Write appends one record.
func (w *Writer) Write(data []byte) error {
	binary.LittleEndian.PutUint64(w.hdr[:8], uint64(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[8:], maskedCRC(w.hdr[:8]))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(w.ftr[:], maskedCRC(data))
	if _, err := w.w.Write(w.ftr[:]); err != nil {
		return err
	}
	w.n++
	return nil
}

// Close flushes buffers (and the gzip stream if present). It does not close
// the underlying writer.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.gz != nil {
		return w.gz.Close()
	}
	return nil
}

// Reader reads TFRecord framing from an underlying stream.
type Reader struct {
	r   *bufio.Reader
	gz  *gzip.Reader
	hdr [12]byte
	ftr [4]byte
}

// NewReader returns a Reader for plain records.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// NewGzipReader returns a Reader for a gzip-compressed record stream.
func NewGzipReader(r io.Reader) (*Reader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("tfrecord: opening gzip stream: %w", err)
	}
	return &Reader{r: bufio.NewReader(gz), gz: gz}, nil
}

// Next returns the next record's payload, or io.EOF at end of stream. The
// returned slice is freshly allocated and owned by the caller.
func (r *Reader) Next() ([]byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrCorrupt
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint64(r.hdr[:8])
	if maskedCRC(r.hdr[:8]) != binary.LittleEndian.Uint32(r.hdr[8:]) {
		return nil, ErrCorrupt
	}
	const maxRecord = 1 << 31
	if length > maxRecord {
		return nil, fmt.Errorf("tfrecord: record length %d exceeds limit", length)
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return nil, ErrCorrupt
	}
	if _, err := io.ReadFull(r.r, r.ftr[:]); err != nil {
		return nil, ErrCorrupt
	}
	if maskedCRC(data) != binary.LittleEndian.Uint32(r.ftr[:]) {
		return nil, ErrCorrupt
	}
	return data, nil
}

// Close releases the gzip reader if present.
func (r *Reader) Close() error {
	if r.gz != nil {
		return r.gz.Close()
	}
	return nil
}

// ReadAll reads every record from r until EOF.
func ReadAll(r *Reader) ([][]byte, error) {
	var out [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
