// Package fixcopydiscipline exercises the copydiscipline analyzer: cloning
// a cache-returned value on a hot path defeats the zero-copy cache-hit
// contract and is flagged; reusing a caller-provided buffer, or copying into
// a tensor freshly drawn from a pool, is not.
package fixcopydiscipline

import "bytes"

// BlobCache is the recognized cache type: Get returns a view the caller
// must treat as read-only shared memory, not clone.
type BlobCache struct{ m map[int][]byte }

// Get returns the cached blob for sample i, zero-copy.
func (c *BlobCache) Get(i int) ([]byte, bool) {
	b, ok := c.m[i]
	return b, ok
}

// Serve is the hot cache-hit path: every clone of blob is flagged, the
// zero-copy uses are not.
//
//scipp:hotpath
func Serve(c *BlobCache, i int, buf []byte) []byte {
	blob, ok := c.Get(i)
	if !ok {
		return nil
	}
	clone := append([]byte(nil), blob...) // flagged: full copy onto a fresh base
	dup := bytes.Clone(blob)              // flagged: explicit clone
	copy(buf, blob)                       // flagged: copy out of the cache view
	reuse := append(buf[:0], blob...)     // fine: caller's buffer, reused capacity
	_ = clone
	_ = dup
	return reuse
}

// ColdClone is not hot-reachable: cloning off the hot path is allowed.
func ColdClone(c *BlobCache, i int) []byte {
	blob, _ := c.Get(i)
	return append([]byte(nil), blob...)
}

// Tensor is a pooled sample buffer.
type Tensor struct{ elems []byte }

// RawBytes is the tensor's element storage as bytes.
func RawBytes(t *Tensor) []byte { return t.elems }

// SlabPool is the recognized pool type.
type SlabPool struct{ free []*Tensor }

// GetTensor draws an n-byte tensor from the pool.
func (p *SlabPool) GetTensor(n int) *Tensor {
	t := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	t.elems = t.elems[:n]
	return t
}

// ServeInto is a hit that owes its caller a private copy: the copy into a
// tensor just drawn from the pool lands in recycled memory and passes; the
// same copy into a tensor of unknown provenance is flagged.
//
//scipp:hotpath
func ServeInto(c *BlobCache, p *SlabPool, held *Tensor, i int) *Tensor {
	blob, ok := c.Get(i)
	if !ok {
		return nil
	}
	dst := p.GetTensor(len(blob))
	copy(RawBytes(dst), blob)  // fine: pool-drawn destination
	copy(RawBytes(held), blob) // flagged: not drawn from the pool here
	return dst
}
