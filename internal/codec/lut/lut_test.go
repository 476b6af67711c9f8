package lut

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

func genSample(t testing.TB, dim, index int) *synthetic.CosmoSample {
	t.Helper()
	return genSampleMax(t, dim, index, synthetic.DefaultCosmoConfig().MaxCount)
}

// genSampleMax clips particle counts at maxCount. At dim 16 a clip of 5
// leaves under 256 unique groups (1-byte keys); the default needs 2-byte
// keys.
func genSampleMax(t testing.TB, dim, index, maxCount int) *synthetic.CosmoSample {
	t.Helper()
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim, cfg.MaxCount = dim, maxCount
	s, err := synthetic.GenerateCosmo(cfg, index)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripExactUnderLog(t *testing.T) {
	// The LUT decode must reproduce exactly what the baseline preprocessing
	// produces: fp16(log1p(count)) for every voxel. The encoding itself is
	// lossless; only the (shared) fp16 cast quantizes.
	s := genSample(t, 24, 0)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	vol := s.Dim * s.Dim * s.Dim
	for c := 0; c < 4; c++ {
		for i := 0; i < vol; i++ {
			want := fp16.FromFloat32(OpLog1p.Apply(s.Channels[c][i]))
			if out.F16s[c*vol+i] != want {
				t.Fatalf("channel %d voxel %d: got %v want %v", c, i,
					out.F16s[c*vol+i].ToFloat32(), want.ToFloat32())
			}
		}
	}
}

func TestIdentityOpRoundTrip(t *testing.T) {
	s := genSample(t, 16, 1)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := FormatWithOp(OpIdentity, true).Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	vol := s.Dim * s.Dim * s.Dim
	for c := 0; c < 4; c++ {
		for i := 0; i < vol; i++ {
			if got := out.F16s[c*vol+i].ToFloat32(); got != float32(s.Channels[c][i]) {
				t.Fatalf("identity decode channel %d voxel %d: %g != %d", c, i, got, s.Channels[c][i])
			}
		}
	}
}

// TestValueTables checks every entry of both process-wide value tables
// against the operator evaluated directly: all 65 536 int16 bit patterns,
// including log1p(-1) = -Inf and the NaNs below it.
func TestValueTables(t *testing.T) {
	for _, op := range []Op{OpLog1p, OpIdentity} {
		vals := op.values()
		for i := range vals {
			if want := fp16.FromFloat32(op.Apply(int16(i))); vals[i] != want {
				t.Fatalf("op %d count %d: table %#04x, direct %#04x", op, int16(i), vals[i], want)
			}
		}
	}
	log := OpLog1p.values()
	if got := log[uint16(0xFFFF)]; got != fp16.NegativeInfinity {
		t.Errorf("log1p(-1) = %#04x, want -Inf", got)
	}
	if got := log[uint16(0x8000)]; !got.IsNaN() {
		t.Errorf("log1p(-32768) = %#04x, want NaN", got)
	}
}

// TestValueTableFirstUseRace races the lazy build from many goroutines, as
// concurrent Opens in the decode stage do on a fresh process. Run under
// -race; every caller must see the finished table.
func TestValueTableFirstUseRace(t *testing.T) {
	var l lazyValues
	want := fp16.FromFloat32(OpLog1p.Apply(600))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := l.get(OpLog1p)[600]; got != want {
				t.Errorf("table[600] = %#04x, want %#04x", got, want)
			}
		}()
	}
	wg.Wait()
}

// splitVolume is a dim-44 volume with a unique group per voxel, so the
// encoder must split it into several sub-volumes; counts cover negative
// values (NaN and -Inf under log1p).
func splitVolume() (ch [4][]int16, dim int) {
	dim = 44 // 85184 voxels > 65536
	n := dim * dim * dim
	for c := range ch {
		ch[c] = make([]int16, n)
	}
	for i := 0; i < n; i++ {
		ch[0][i] = int16(i & 0x7FFF)
		ch[1][i] = int16((i >> 15) & 0x7FFF)
		ch[2][i] = int16(i%37) - 2
		ch[3][i] = int16(i % 41)
	}
	return ch, dim
}

// TestFusedMatchesUnfused compares the table-fused decode with the
// per-voxel ablation path and with the operator applied to the source
// counts, bit for bit — fusion is a pure optimization — on a 1-byte-key
// blob, a 2-byte-key blob and a multi-sub-volume blob.
func TestFusedMatchesUnfused(t *testing.T) {
	narrow, wide := genSampleMax(t, 16, 0, 5), genSample(t, 16, 0)
	splitCh, splitDim := splitVolume()
	cases := []struct {
		name  string
		ch    [4][]int16
		dim   int
		kw    int
		split bool // more than one sub-volume
	}{
		{"1-byte keys", narrow.Channels, 16, 1, false},
		{"2-byte keys", wide.Channels, 16, 2, false},
		{"multi-sub-volume", splitCh, splitDim, 2, true},
	}
	for _, tc := range cases {
		blob, err := Encode(tc.ch, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := FormatWithOp(OpLog1p, true).Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		d := fused.(*Decoder)
		if d.KeyWidth(0) != tc.kw || tc.split != (d.NumSubVolumes() > 1) {
			t.Fatalf("%s: blob has kw=%d subs=%d", tc.name, d.KeyWidth(0), d.NumSubVolumes())
		}
		unfused, err := FormatWithOp(OpLog1p, false).Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		a, err := codec.Decode(fused)
		if err != nil {
			t.Fatal(err)
		}
		b, err := codec.Decode(unfused)
		if err != nil {
			t.Fatal(err)
		}
		vol := tc.dim * tc.dim * tc.dim
		for i := range a.F16s {
			if a.F16s[i] != b.F16s[i] {
				t.Fatalf("%s: fused %#04x != unfused %#04x at %d", tc.name, a.F16s[i], b.F16s[i], i)
			}
			if want := fp16.FromFloat32(OpLog1p.Apply(tc.ch[i/vol][i%vol])); a.F16s[i] != want {
				t.Fatalf("%s: decoded %#04x at %d, source gives %#04x", tc.name, a.F16s[i], i, want)
			}
		}
		// Fused should report far fewer ops (the split volume has a group
		// per voxel, so there fusion saves nothing).
		if !tc.split && fused.Workload().Ops >= unfused.Workload().Ops {
			t.Errorf("%s: fused workload not cheaper than unfused", tc.name)
		}
	}
}

// TestKeyOutOfTable corrupts voxel keys past the group count: both key
// widths, fused and unfused, must fail that chunk's decode and name the
// first bad key in voxel order. A plane of 17^2 voxels is 72 four-voxel
// steps and a one-voxel tail; the bad key goes to each lane of a step, with
// a second, different bad key in every later lane, and to the tail.
func TestKeyOutOfTable(t *testing.T) {
	const dim, plane = 17, 17 * 17
	for _, tc := range []struct {
		maxCount, kw int
	}{{5, 1}, {600, 2}} {
		s := genSampleMax(t, dim, 0, tc.maxCount)
		clean, err := Encode(s.Channels, s.Dim)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := Format().Open(clean)
		if err != nil {
			t.Fatal(err)
		}
		d := cd.(*Decoder)
		ng := d.Groups()
		if d.NumSubVolumes() != 1 || d.KeyWidth(0) != tc.kw || ng > 1<<(8*tc.kw)-2 {
			t.Fatalf("blob has %d sub-volumes, kw=%d, %d groups", d.NumSubVolumes(), d.KeyWidth(0), ng)
		}
		// The keys are the blob's tail, one per voxel in x-fastest order.
		keyStart := len(clean) - dim*plane*tc.kw
		setKey := func(blob []byte, voxel, k int) {
			if tc.kw == 1 {
				blob[keyStart+voxel] = byte(k)
			} else {
				binary.LittleEndian.PutUint16(blob[keyStart+2*voxel:], uint16(k))
			}
		}
		const z, step = dim - 2, 40 // chunk z's voxels 4*step .. 4*step+3
		for _, lane := range []int{0, 1, 2, 3, plane - 1 - 4*step} {
			blob := append([]byte(nil), clean...)
			p := 4*step + lane
			setKey(blob, z*plane+p, ng)
			for later := p + 1; later < 4*step+4; later++ {
				setKey(blob, z*plane+later, ng+1)
			}
			for _, fused := range []bool{true, false} {
				cd, err := FormatWithOp(OpLog1p, fused).Open(blob)
				if err != nil {
					t.Fatal(err)
				}
				dst := tensor.New(tensor.F16, cd.OutputShape()...)
				if err := cd.DecodeChunk(z+1, dst); err != nil {
					t.Errorf("kw %d fused=%v: untouched chunk failed: %v", tc.kw, fused, err)
				}
				err = cd.DecodeChunk(z, dst)
				if want := fmt.Sprintf("key %d out of table", ng); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("kw %d fused=%v, bad key at plane voxel %d: error %v, want %q", tc.kw, fused, p, err, want)
				}
			}
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	// §V-B: "a compression factor of roughly 4x" vs the int16 source with
	// 2-byte keys. Accept anything >= 3x on synthetic data.
	s := genSample(t, 48, 3)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BlobStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	// dim=48 leaves the table overhead under-amortized; the paper-scale ~4x
	// is reached at dim=128 (bench harness).
	if st.Ratio < 2.5 {
		t.Errorf("compression ratio %.2f, want >= 2.5x vs int16 source", st.Ratio)
	}
	if st.Ratio > 9 {
		t.Errorf("compression ratio %.2f implausibly high", st.Ratio)
	}
	t.Logf("dim=%d groups=%d subs=%d ratio=%.2fx", st.Dim, st.Groups, st.SubVolumes, st.Ratio)
}

// TestBlobStatsRecycles: BlobStats hands its decoder, fused table
// included, back to the pool, so a steady loop of calls allocates well
// under what an unrecycled Open does. The race detector drops a share of
// pool Puts at random, so the bound is half of Open's count rather than
// zero.
func TestBlobStatsRecycles(t *testing.T) {
	s := genSample(t, 16, 2)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	open := testing.AllocsPerRun(100, func() {
		if _, err := Format().Open(blob); err != nil {
			t.Fatal(err)
		}
	})
	stats := testing.AllocsPerRun(100, func() {
		if _, err := BlobStats(blob); err != nil {
			t.Fatal(err)
		}
	})
	if stats >= open/2 {
		t.Errorf("BlobStats allocates %.2f objects per call, an unrecycled Open %.2f", stats, open)
	}
}

func TestOneByteKeys(t *testing.T) {
	// A tiny low-diversity volume should fit in 256 groups and use 1-byte keys.
	dim := 8
	n := dim * dim * dim
	var ch [4][]int16
	for c := range ch {
		ch[c] = make([]int16, n)
		for i := range ch[c] {
			ch[c][i] = int16((i % 4) + c)
		}
	}
	blob, err := Encode(ch, dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	d := cd.(*Decoder)
	if d.NumSubVolumes() != 1 || d.KeyWidth(0) != 1 {
		t.Errorf("subs=%d kw=%d, want 1-byte keys in one sub-volume",
			d.NumSubVolumes(), d.KeyWidth(0))
	}
	if d.Groups() != 4 {
		t.Errorf("groups = %d, want 4", d.Groups())
	}
	out, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.F16s[0].ToFloat32(); math.Abs(float64(got)-math.Log1p(0)) > 1e-3 {
		t.Errorf("voxel 0 channel 0 = %g", got)
	}
}

func TestMultiTableSplit(t *testing.T) {
	// Force >65536 groups so the encoder must split into sub-volumes.
	ch, dim := splitVolume()
	n := dim * dim * dim
	blob, err := Encode(ch, dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := FormatWithOp(OpIdentity, true).Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	d := cd.(*Decoder)
	if d.NumSubVolumes() < 2 {
		t.Fatalf("expected multi-table split, got %d sub-volumes", d.NumSubVolumes())
	}
	out, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check exactness across the split boundary.
	r := xrand.New(1)
	for k := 0; k < 1000; k++ {
		i := r.Intn(n)
		c := r.Intn(4)
		if got := out.F16s[c*n+i].ToFloat32(); got != fp16.RoundTrip32(float32(ch[c][i])) {
			t.Fatalf("voxel %d channel %d: %g != %d", i, c, got, ch[c][i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	s := genSample(t, 24, 4)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.DecodeParallel(cd, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.F16s {
		if a.F16s[i] != b.F16s[i] {
			t.Fatal("parallel decode differs")
		}
	}
}

func TestWorkload(t *testing.T) {
	s := genSample(t, 16, 5)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	wl := cd.Workload()
	if wl.Chunks != 16 {
		t.Errorf("Chunks = %d, want 16 (z-slices)", wl.Chunks)
	}
	n := 16 * 16 * 16
	if wl.BytesOut != 4*n*2 {
		t.Errorf("BytesOut = %d", wl.BytesOut)
	}
	if wl.Divergent != 0 {
		t.Error("LUT decode should have no divergent chunks")
	}
	if wl.SerialBytes != 0 {
		t.Error("LUT decode should have no serial stage")
	}
}

func TestEncodeValidation(t *testing.T) {
	var ch [4][]int16
	if _, err := Encode(ch, 0); err == nil {
		t.Error("dim 0 accepted")
	}
	for c := range ch {
		ch[c] = make([]int16, 8)
	}
	if _, err := Encode(ch, 3); err == nil {
		t.Error("mismatched channel length accepted")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Format().Open(nil); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := Format().Open(make([]byte, 32)); err == nil {
		t.Error("garbage accepted")
	}
	s := genSample(t, 12, 6)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{8, 13, len(blob) / 2, len(blob) - 1} {
		if _, err := Format().Open(blob[:cut]); err == nil {
			t.Errorf("truncated blob (%d) accepted", cut)
		}
	}
	// Trailing junk.
	if _, err := Format().Open(append(append([]byte(nil), blob...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeChunkValidation(t *testing.T) {
	s := genSample(t, 12, 7)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(tensor.F16, 4, 12, 12, 12)
	if err := cd.DecodeChunk(-1, dst); err == nil {
		t.Error("negative chunk accepted")
	}
	if err := cd.DecodeChunk(12, dst); err == nil {
		t.Error("chunk beyond dim accepted")
	}
	if err := cd.DecodeChunk(0, tensor.New(tensor.F32, 4, 12, 12, 12)); err == nil {
		t.Error("F32 dst accepted")
	}
}

func TestGroupsMatchStatsPackage(t *testing.T) {
	// Decoder group count must equal the independent stats-package count
	// when a single table covers the volume.
	s := genSample(t, 20, 8)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	d := cd.(*Decoder)
	if d.NumSubVolumes() == 1 {
		want := uniqueGroupsRef(s.Channels)
		if d.Groups() != want {
			t.Errorf("Groups = %d, reference count %d", d.Groups(), want)
		}
	}
}

func uniqueGroupsRef(ch [4][]int16) int {
	m := make(map[group]struct{})
	for i := range ch[0] {
		m[group{ch[0][i], ch[1][i], ch[2][i], ch[3][i]}] = struct{}{}
	}
	return len(m)
}

func BenchmarkEncode(b *testing.B) {
	s := genSample(b, 48, 0)
	b.SetBytes(int64(s.StoredBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s.Channels, s.Dim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen times Format().Open — header validation plus building the
// fused table — with the decoder recycled between iterations, as the
// pipeline's decode stage does.
func BenchmarkOpen(b *testing.B) {
	for _, dim := range []int{32, 64} {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			s := genSample(b, dim, 0)
			blob, err := Encode(s.Channels, s.Dim)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cd, err := Format().Open(blob)
				if err != nil {
					b.Fatal(err)
				}
				codec.Recycle(cd)
			}
		})
	}
}

// BenchmarkDecodeFused decodes a 4x48^3 sample into one reused tensor, so
// it times the kernel, not the allocation of its output.
func BenchmarkDecodeFused(b *testing.B) {
	s := genSample(b, 48, 0)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		b.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	dst := tensor.New(tensor.F16, cd.OutputShape()...)
	b.SetBytes(int64(s.RawBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.DecodeInto(cd, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSample decodes one sample at the repo benchmark's
// cosmoflow_gpu_cached size (4x64^3) into a rotation of 12 destinations,
// as the pipeline's slab pool hands them out: each decode writes 2 MB that
// is not already in cache, like a decode in the loader.
func BenchmarkDecodeSample(b *testing.B) {
	s := genSample(b, 64, 0)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		b.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	dsts := make([]*tensor.Tensor, 12)
	for i := range dsts {
		dsts[i] = tensor.New(tensor.F16, cd.OutputShape()...)
	}
	b.SetBytes(int64(dsts[0].Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.DecodeInto(cd, dsts[i%len(dsts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeUnfused(b *testing.B) {
	// Ablation: per-voxel log instead of table-level log.
	s := genSample(b, 48, 0)
	blob, err := Encode(s.Channels, s.Dim)
	if err != nil {
		b.Fatal(err)
	}
	cd, err := FormatWithOp(OpLog1p, false).Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.RawBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(cd); err != nil {
			b.Fatal(err)
		}
	}
}

// NumSubVolumes returns the number of independent lookup tables.
func (d *Decoder) NumSubVolumes() int { return len(d.subs) }
