package dataserve_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"scipp/internal/dataserve"
	"scipp/internal/fault"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// refSample rebuilds sample i of buildDataset's dataset as a decoded
// tensor: the bit-exact value every delivery must match.
func refSample(i int, shape tensor.Shape) *tensor.Tensor {
	vals := make([]float32, shape.Elems())
	for j := range vals {
		vals[j] = float32(i*1000+j) * 0.5
	}
	return tensor.FromF32(vals, shape...)
}

// encodeSamplePayload re-derives a cache resident from its documented
// layout: the decoded tensor's element bits in the host's byte order, with
// no header. It is intentionally independent of tensor.RawBytes: a format
// drift breaks the fuzz target's direct-Put ops loudly.
func encodeSamplePayload(src *tensor.Tensor) []byte {
	var buf []byte
	for _, f := range src.F32s {
		buf = binary.NativeEndian.AppendUint32(buf, math.Float32bits(f))
	}
	return buf
}

// FuzzTenantCache drives the shared cache and tenant lifecycle with an
// adversarial interleaving of batch pulls, iterator closes, tenant
// detach/reattach churn, and direct cache Put/Get traffic, optionally under
// bit-rot tampering. Two invariants must hold on every path:
//
//  1. no delivered or cache-read sample is ever checksum-mismatched — every
//     data tensor is bit-identical to the reference decode of its index;
//  2. no pooled tensor is double-released — data tensors within one live
//     batch are distinct allocations.
func FuzzTenantCache(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 1, 1, 4, 4, 4, 1, 1, 1})                                    // clean pulls, large cache
	f.Add([]byte{1, 1, 120, 3, 1, 2, 3, 12, 13, 14, 1, 2, 3, 8, 9, 10, 1, 2, 3})            // bit rot + close/detach churn
	f.Add([]byte{1, 0, 0, 1, 16, 17, 18, 19, 16, 1, 2, 16, 3, 16, 1, 16, 2, 1, 16, 18, 16}) // tiny cache, direct Put/Get pressure
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		const samples = 12
		shape := testShape
		ds := buildDataset(samples, shape)
		svc := dataserve.New(dataserve.Config{Workers: 2})
		defer svc.Close()

		// data[0] picks cache pressure: a cache holding only a few decoded
		// samples forces eviction/re-decode churn under the same invariants.
		cacheBytes := int64(16 << 20)
		if data[0]&1 == 1 {
			cacheBytes = 350 // 3 decoded samples of 100 B
		}
		err := svc.Register(dataserve.DatasetConfig{
			Name:   "shared",
			Data:   ds,
			Format: rawF32Format{shape},
			Cache:  pipeline.CacheConfig{HostMemBytes: cacheBytes},
		})
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		if data[1]&1 == 1 {
			svc.Cache("shared").SetTamper(fault.NewCacheInjector(fault.CacheFaultConfig{
				Seed:   uint64(data[2]) + 1,
				BitRot: 0.3,
			}))
		}

		type slot struct {
			tn    *dataserve.Tenant
			it    *dataserve.Iterator
			epoch int
			gen   int
		}
		slots := make([]*slot, 3)
		attach := func(i, gen int) *slot {
			tn, err := svc.Attach(dataserve.TenantConfig{
				Name:     fmt.Sprintf("t%d.%d", i, gen),
				Dataset:  "shared",
				Batch:    1 + int(data[3]%4),
				Inflight: 4,
				Shuffle:  true,
				Seed:     uint64(i)*17 + uint64(gen),
			})
			if err != nil {
				t.Fatalf("Attach t%d.%d: %v", i, gen, err)
			}
			return &slot{tn: tn, gen: gen}
		}
		for i := range slots {
			slots[i] = attach(i, 0)
		}
		defer func() {
			for _, s := range slots {
				if s.it != nil {
					s.it.Close()
				}
			}
		}()

		checkBatch := func(b *pipeline.Batch) {
			seen := make(map[*tensor.Tensor]bool, len(b.Data))
			for s := range b.Data {
				idx := b.Indices[s]
				if idx < 0 || idx >= samples {
					t.Fatalf("batch index %d out of range", idx)
				}
				d := b.Data[s]
				if seen[d] {
					t.Fatalf("sample %d shares a pooled tensor with another sample in its batch", idx)
				}
				seen[d] = true
				want := refSample(idx, shape)
				for j := range want.F32s {
					if math.Float32bits(d.F32s[j]) != math.Float32bits(want.F32s[j]) {
						t.Fatalf("sample %d element %d: got %x want %x (corrupt delivery)",
							idx, j, math.Float32bits(d.F32s[j]), math.Float32bits(want.F32s[j]))
					}
				}
				if got := b.Labels[s].At32(0); got != float32(idx) {
					t.Fatalf("sample %d label %v", idx, got)
				}
			}
		}

		ops := data[4:]
		if len(ops) > 200 {
			ops = ops[:200]
		}
		for _, op := range ops {
			s := slots[int(op)%len(slots)]
			switch (op >> 2) % 5 {
			case 0, 1: // pull one batch, validating every sample
				if s.it == nil {
					s.it = s.tn.Epoch(s.epoch)
					s.epoch++
					if s.it == nil {
						t.Fatal("attached tenant returned nil epoch iterator")
					}
				}
				b, err := s.it.Next()
				if err != nil {
					t.Fatalf("tenant %s Next: %v", s.tn.Name(), err)
				}
				if b == nil {
					s.it.Close()
					s.it = nil
					continue
				}
				checkBatch(b)
				b.Release()
			case 2: // close mid-epoch
				if s.it != nil {
					s.it.Close()
					s.it = nil
				}
			case 3: // detach mid-epoch, reattach a fresh generation
				s.tn.Detach()
				i := int(op) % len(slots)
				slots[i] = attach(i, s.gen+1)
			case 4: // direct cache traffic interleaved with tenant serving
				c := svc.Cache("shared")
				idx := int(op>>1) % samples
				if op&1 == 1 {
					c.Put(idx, encodeSamplePayload(refSample(idx, shape)), ds.Labels[idx])
				} else if blob, _, ok, _ := c.Get(idx); ok {
					if !bytes.Equal(blob, encodeSamplePayload(refSample(idx, shape))) {
						t.Fatalf("cache returned mismatched payload for sample %d", idx)
					}
				}
			}
		}
	})
}
