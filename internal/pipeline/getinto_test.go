package pipeline

import (
	"bytes"
	"testing"

	"scipp/internal/tensor"
)

// TestGetIntoCopiesVerifiedHit checks GetInto's copy rule: a destination of
// the resident's length receives its bytes on the verifying pass; one of
// any other length is left alone, and the hit still reports the resident,
// whose length tells the caller.
func TestGetIntoCopiesVerifiedHit(t *testing.T) {
	blob := randomPayload(7, 1000)
	label := tensor.FromF32([]float32{1, 2}, 2)
	c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
	c.Put(4, append([]byte(nil), blob...), label)

	dst := make([]byte, len(blob))
	got, gotLabel, ok, quarantined := c.GetInto(4, dst)
	if !ok || quarantined || gotLabel != label || !bytes.Equal(got, blob) {
		t.Fatalf("GetInto = (%d bytes, %v, %v, %v), want a clean hit", len(got), gotLabel, ok, quarantined)
	}
	if !bytes.Equal(dst, blob) {
		t.Fatal("a fitting destination did not receive the resident")
	}

	short := bytes.Repeat([]byte{0xEE}, len(blob)-1)
	got, _, ok, _ = c.GetInto(4, short)
	if !ok || len(got) != len(blob) || bytes.Count(short, []byte{0xEE}) != len(short) {
		t.Fatal("a misfit destination was written, or the hit lost its length")
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats %+v, want two hits", st)
	}
}

// TestGetIntoLateMismatch changes a resident behind the ownership rule:
// nothing under the mutex reads resident bytes when no tamper hook is
// installed, so the change is first seen by the checksum-and-copy pass
// after unlocking. GetInto must relock, reverse the hit, quarantine the
// entry and report a quarantined miss.
func TestGetIntoLateMismatch(t *testing.T) {
	c := NewSampleCache(CacheConfig{HostMemBytes: 1 << 20})
	resident := randomPayload(8, 4096)
	c.Put(2, resident, nil)
	resident[1234] ^= 0x10 // the caller broke its promise to Put

	dst := make([]byte, len(resident))
	blob, label, ok, quarantined := c.GetInto(2, dst)
	if ok || !quarantined || blob != nil || label != nil {
		t.Fatalf("late mismatch: GetInto = (%v, %v, %v, %v), want a quarantined miss", blob != nil, label, ok, quarantined)
	}
	st := c.Stats()
	if st.Hits != 0 || st.HostHits != 0 || st.Misses != 1 || st.Quarantined != 1 || st.HostSamples != 0 {
		t.Fatalf("stats %+v: want the hit reversed into a miss and the entry quarantined", st)
	}
	if c.Resident(2) {
		t.Fatal("the mismatched entry is still resident")
	}
	verifyClean(t, c, "after a late mismatch")
}
