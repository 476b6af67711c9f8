// Package h5lite is a minimal chunked scientific-data container standing in
// for HDF5, which the DeepCAM/CAM5 dataset uses ("stored in HDF5 files using
// 32-bit floating-point format", §IV). It supports named datasets with a
// dtype and shape, string attributes, and per-dataset CRC32 integrity, in a
// single self-describing file:
//
//	magic "H5L1" | uint32 ndatasets | uint32 nattrs
//	attrs:    {u16 klen, key, u16 vlen, value}*
//	datasets: {u16 namelen, name, u8 dtype, u8 rank, u64 dims[rank],
//	           u32 crc, u64 payloadlen, payload}*
//
// Payloads are little-endian packed element data.
package h5lite

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"

	"scipp/internal/tensor"
)

var magic = [4]byte{'H', '5', 'L', '1'}

// ErrCorrupt is returned when a dataset payload fails its CRC.
var ErrCorrupt = errors.New("h5lite: corrupt dataset payload")

// File is an in-memory h5lite file: named datasets plus string attributes.
type File struct {
	Attrs    map[string]string
	datasets map[string]*tensor.Tensor
}

// NewFile returns an empty file.
func NewFile() *File {
	return &File{
		Attrs:    make(map[string]string),
		datasets: make(map[string]*tensor.Tensor),
	}
}

// Put stores a dataset under name, replacing any existing one. The tensor is
// stored by reference.
func (f *File) Put(name string, t *tensor.Tensor) { f.datasets[name] = t }

// Get returns the dataset stored under name.
func (f *File) Get(name string) (*tensor.Tensor, bool) {
	t, ok := f.datasets[name]
	return t, ok
}

// Names returns the dataset names in sorted order.
func (f *File) Names() []string {
	out := make([]string, 0, len(f.datasets))
	for k := range f.datasets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Write serializes the file to w.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var u32 [4]byte
	var u64 [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := bw.Write(u32[:])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u64[:], v)
		_, err := bw.Write(u64[:])
		return err
	}
	writeStr := func(s string) error {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("h5lite: string too long (%d)", len(s))
		}
		var u16 [2]byte
		binary.LittleEndian.PutUint16(u16[:], uint16(len(s)))
		if _, err := bw.Write(u16[:]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	if err := writeU32(uint32(len(f.datasets))); err != nil {
		return err
	}
	if err := writeU32(uint32(len(f.Attrs))); err != nil {
		return err
	}
	attrKeys := make([]string, 0, len(f.Attrs))
	for k := range f.Attrs {
		attrKeys = append(attrKeys, k)
	}
	sort.Strings(attrKeys)
	for _, k := range attrKeys {
		if err := writeStr(k); err != nil {
			return err
		}
		if err := writeStr(f.Attrs[k]); err != nil {
			return err
		}
	}
	for _, name := range f.Names() {
		t := f.datasets[name]
		if err := writeStr(name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(t.DT)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(len(t.Shape))); err != nil {
			return err
		}
		for _, d := range t.Shape {
			if err := writeU64(uint64(d)); err != nil {
				return err
			}
		}
		payload := packPayload(t)
		if err := writeU32(crc32.ChecksumIEEE(payload)); err != nil {
			return err
		}
		if err := writeU64(uint64(len(payload))); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func packPayload(t *tensor.Tensor) []byte {
	out := make([]byte, 0, t.Bytes())
	switch t.DT {
	case tensor.F32:
		return tensor.AppendLE(out, t.F32s)
	case tensor.F16:
		return tensor.AppendLE(out, t.F16s)
	case tensor.I16:
		return tensor.AppendLE(out, t.I16s)
	}
	return out
}

func unpackPayload(dt tensor.DType, shape tensor.Shape, payload []byte) (*tensor.Tensor, error) {
	// Validate the shape/payload relationship BEFORE allocating: a corrupt
	// header must not trigger a huge allocation.
	elems := 1
	for _, d := range shape {
		if d < 0 || d > 1<<32 {
			return nil, fmt.Errorf("h5lite: implausible dimension %d", d)
		}
		if d > 0 && elems > (1<<33)/d {
			return nil, fmt.Errorf("h5lite: shape %v overflows element budget", shape)
		}
		elems *= d
	}
	switch dt {
	case tensor.F32, tensor.F16, tensor.I16:
	default:
		return nil, fmt.Errorf("h5lite: unknown dtype %d", int(dt))
	}
	if len(payload) != elems*dt.Size() {
		return nil, fmt.Errorf("h5lite: payload %d bytes, want %d", len(payload), elems*dt.Size())
	}
	t := tensor.New(dt, shape...)
	switch dt {
	case tensor.F32:
		tensor.DecodeLE(t.F32s, payload)
	case tensor.F16:
		tensor.DecodeLE(t.F16s, payload)
	case tensor.I16:
		tensor.DecodeLE(t.I16s, payload)
	}
	return t, nil
}

// Read parses an h5lite file from r.
func Read(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("h5lite: reading magic: %w", err)
	}
	if hdr != magic {
		return nil, errors.New("h5lite: bad magic")
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readStr := func() (string, error) {
		var b [2]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return "", err
		}
		n := binary.LittleEndian.Uint16(b[:])
		s := make([]byte, n)
		if _, err := io.ReadFull(br, s); err != nil {
			return "", err
		}
		return string(s), nil
	}

	nds, err := readU32()
	if err != nil {
		return nil, err
	}
	nattrs, err := readU32()
	if err != nil {
		return nil, err
	}
	f := NewFile()
	for i := uint32(0); i < nattrs; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		f.Attrs[k] = v
	}
	const maxPayload = 1 << 32
	for i := uint32(0); i < nds; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		dtb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		rank, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		shape := make(tensor.Shape, rank)
		for d := range shape {
			v, err := readU64()
			if err != nil {
				return nil, err
			}
			shape[d] = int(v)
		}
		wantCRC, err := readU32()
		if err != nil {
			return nil, err
		}
		plen, err := readU64()
		if err != nil {
			return nil, err
		}
		if plen > maxPayload {
			return nil, fmt.Errorf("h5lite: payload length %d exceeds limit", plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return nil, fmt.Errorf("%w: dataset %q", ErrCorrupt, name)
		}
		t, err := unpackPayload(tensor.DType(dtb), shape, payload)
		if err != nil {
			return nil, err
		}
		f.datasets[name] = t
	}
	return f, nil
}

// WriteFile serializes f to path.
func WriteFile(path string, f *File) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		//lint:ignore uncheckederr best-effort cleanup; the write error already propagates
		out.Close()
		return err
	}
	return out.Close()
}

// ReadFile parses the h5lite file at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}
