package pipeline

import (
	"bytes"
	"testing"
)

// xorTamper applies a caller-chosen XOR mask to one resident blob — the
// fuzzer's handle on arbitrary in-cache corruption patterns.
type xorTamper struct{ mask []byte }

func (x *xorTamper) Rots(int) bool { return true }

func (x *xorTamper) Tamper(_ int, blob []byte) bool {
	changed := false
	for i := 0; i < len(blob) && i < len(x.mask); i++ {
		if x.mask[i] != 0 {
			changed = true
		}
		blob[i] ^= x.mask[i]
	}
	return changed
}

// FuzzCacheIntegrity drives arbitrary corruption patterns at a resident
// cache entry and asserts the integrity invariant: a Get either serves the
// admitted bytes exactly or quarantines — a corrupted blob never escapes the
// cache toward a Batch, and a quarantined sample re-admits cleanly.
func FuzzCacheIntegrity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xEE, 0xDD}, []byte{0x01})
	f.Add([]byte("staged-sample-payload"), []byte{0, 0, 0x80, 0, 0, 0, 0, 0, 0x40})
	f.Add([]byte{}, []byte{0xFF})
	f.Fuzz(func(t *testing.T, blob, mask []byte) {
		c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
		c.Put(0, blob, nil)
		tam := &xorTamper{mask: mask}
		c.SetTamper(tam)
		got, _, ok, quarantined := c.Get(0)
		corrupted := false
		for i := 0; i < len(blob) && i < len(mask); i++ {
			if mask[i] != 0 {
				corrupted = true
			}
		}
		if corrupted {
			if ok || !quarantined {
				t.Fatalf("corrupted resident served as a hit: ok=%v quarantined=%v", ok, quarantined)
			}
			if c.Len() != 0 {
				t.Fatal("quarantined entry still resident")
			}
		} else {
			if !ok || quarantined {
				t.Fatalf("pristine resident not served: ok=%v quarantined=%v", ok, quarantined)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("hit served %v, admitted %v", got, blob)
			}
		}
		// Re-admission after any outcome must serve the clean bytes.
		c.SetTamper(nil)
		c.Put(0, blob, nil)
		got, _, ok, quarantined = c.Get(0)
		if !ok || quarantined || !bytes.Equal(got, blob) {
			t.Fatalf("re-admitted sample: got %v ok=%v quarantined=%v, want %v", got, ok, quarantined, blob)
		}
	})
}
