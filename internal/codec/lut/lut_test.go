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
		for i := range 1 << 16 {
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

// decodeBoth decodes every chunk of blob with format f twice, through the
// gather kernels (useGather as the host allows) and with the portable
// bodies forced, into tensors pre-filled with a guard pattern. It returns
// both outputs and each chunk's error text ("" for none), and fails unless
// the two Opens fused identical tables.
func decodeBoth(t *testing.T, f codec.Format, blob []byte) (out [2]*tensor.Tensor, errs [2][]string) {
	t.Helper()
	defer func(on bool) { useGather = on }(useGather)
	var tables [2][][]uint64
	for i, on := range []bool{fp16.AVX512(), false} {
		useGather = on
		cd, err := f.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range cd.(*Decoder).subs {
			tables[i] = append(tables[i], append([]uint64(nil), s.decoded...))
		}
		out[i] = tensor.New(tensor.F16, cd.OutputShape()...)
		for k := range out[i].F16s {
			out[i].F16s[k] = fp16.Bits(k*7919) | 1
		}
		for z := 0; z < cd.NumChunks(); z++ {
			msg := ""
			if err := cd.DecodeChunk(z, out[i]); err != nil {
				msg = err.Error()
			}
			errs[i] = append(errs[i], msg)
		}
		codec.Recycle(cd)
	}
	if fmt.Sprint(tables[0]) != fmt.Sprint(tables[1]) {
		t.Fatal("the fuse kernel and the portable fuse built different tables")
	}
	return out, errs
}

// TestGatherMatchesPortable decodes through the AVX-512 gather kernels and
// through the portable bodies and requires identical bytes: 1- and 2-byte
// keys, planes that are not a multiple of 16 voxels (dim 17 and 33), and a
// z-split multi-table blob, under both fused operators.
func TestGatherMatchesPortable(t *testing.T) {
	t.Logf("AVX-512 kernels: %v", fp16.AVX512())
	splitCh, splitDim := splitVolume()
	for _, tc := range []struct {
		name string
		ch   [4][]int16
		dim  int
		kw   int
	}{
		{"1-byte keys, dim 17", genSampleMax(t, 17, 0, 5).Channels, 17, 1},
		{"2-byte keys, dim 17", genSample(t, 17, 1).Channels, 17, 2},
		{"2-byte keys, dim 33", genSample(t, 33, 2).Channels, 33, 2},
		{"multi-table", splitCh, splitDim, 2},
	} {
		blob, err := Encode(tc.ch, tc.dim)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := Format().Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		d := cd.(*Decoder)
		if kw, subs := d.KeyWidth(0), d.NumSubVolumes(); kw != tc.kw || (subs > 1) != (tc.dim == splitDim) {
			t.Fatalf("%s: blob has %d-byte keys in %d sub-volumes", tc.name, kw, subs)
		}
		codec.Recycle(cd)
		for _, op := range []Op{OpLog1p, OpIdentity} {
			out, errs := decodeBoth(t, FormatWithOp(op, true), blob)
			if strings.Join(errs[0], "") != "" || strings.Join(errs[1], "") != "" {
				t.Fatalf("%s: decode failed: %q / %q", tc.name, errs[0], errs[1])
			}
			vol := tc.dim * tc.dim * tc.dim
			for i, h := range out[0].F16s {
				if want := fp16.FromFloat32(op.Apply(tc.ch[i/vol][i%vol])); h != want || out[1].F16s[i] != want {
					t.Fatalf("%s op %d: voxel %d: kernel %#04x, portable %#04x, want %#04x", tc.name, op, i, h, out[1].F16s[i], want)
				}
			}
		}
	}
}

// TestGatherBadKeyEachLane puts an out-of-range key at each of the 16
// positions of one kernel block (a second bad key later in the block), in
// a dim-33 plane whose 1089 voxels are 68 blocks and a one-voxel tail: the
// kernel path must fail with the portable body's error and leave the same
// partial planes, for both key widths.
func TestGatherBadKeyEachLane(t *testing.T) {
	const dim, plane, block, z = 33, 33 * 33, 20, 5
	for _, tc := range []struct{ maxCount, kw int }{{3, 1}, {600, 2}} {
		s := genSampleMax(t, dim, 3, tc.maxCount)
		clean, err := Encode(s.Channels, dim)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := Format().Open(clean)
		if err != nil {
			t.Fatal(err)
		}
		d := cd.(*Decoder)
		ng, kw, subs := d.Groups(), d.KeyWidth(0), d.NumSubVolumes()
		codec.Recycle(cd)
		if subs != 1 || kw != tc.kw || ng > 1<<(8*kw)-2 {
			t.Fatalf("blob has %d sub-volumes, %d groups for %d-byte keys", subs, ng, kw)
		}
		keyStart := len(clean) - dim*plane*kw
		setKey := func(blob []byte, voxel, k int) {
			if kw == 1 {
				blob[keyStart+voxel] = byte(k)
			} else {
				binary.LittleEndian.PutUint16(blob[keyStart+2*voxel:], uint16(k))
			}
		}
		for lane := 0; lane < 16; lane++ {
			blob := append([]byte(nil), clean...)
			p := 16*block + lane
			setKey(blob, z*plane+p, ng)
			if lane < 15 {
				setKey(blob, z*plane+p+1+(15-lane)/2, ng+1)
			}
			out, errs := decodeBoth(t, Format(), blob)
			want := fmt.Sprintf("lut: key %d out of table (%d groups)", ng, ng)
			for ch, msg := range errs[0] {
				if msg != errs[1][ch] || (ch == z) != (msg == want) {
					t.Fatalf("kw %d lane %d chunk %d: kernel error %q, portable %q, want %q at chunk %d", kw, lane, ch, msg, errs[1][ch], want, z)
				}
			}
			for i, h := range out[0].F16s {
				if h != out[1].F16s[i] {
					t.Fatalf("kw %d lane %d: element %d: kernel %#04x, portable %#04x", kw, lane, i, h, out[1].F16s[i])
				}
			}
		}
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
	if _, err := FormatWithOp(Op(7), true).Open(blob); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown operator: %v", err)
	}
	// Hand-framed blobs of dim 2, one zero-key plane per z-slice of each
	// sub-volume: each breaks one framing rule and must fail with it.
	type subHdr struct{ z0, z1, kw, ng int }
	frame := func(dim, nsub int, subs ...subHdr) []byte {
		b := binary.LittleEndian.AppendUint32(nil, blobMagic)
		b = binary.LittleEndian.AppendUint32(b, uint32(dim))
		b = binary.LittleEndian.AppendUint32(b, uint32(nsub))
		for _, h := range subs {
			b = binary.LittleEndian.AppendUint32(b, uint32(h.z0))
			b = binary.LittleEndian.AppendUint32(b, uint32(h.z1))
			b = append(b, byte(h.kw))
			b = binary.LittleEndian.AppendUint32(b, uint32(h.ng))
			b = append(b, make([]byte, 8*h.ng+max(h.z1-h.z0, 0)*dim*dim*h.kw)...)
		}
		return b
	}
	for _, tc := range []struct {
		blob []byte
		want string
	}{
		{frame(2, 0), "invalid header"},
		{frame(2, 3, subHdr{0, 2, 1, 1}), "invalid header"},
		{frame(2, 2, subHdr{0, 2, 1, 1}), "truncated sub-volume header"},
		{frame(2, 1, subHdr{0, 2, 3, 1}), "invalid sub-volume"},
		{frame(2, 1, subHdr{1, 1, 1, 1}), "invalid sub-volume"},
		{frame(2, 1, subHdr{0, 2, 1, 257}), "1-byte keys with >256 groups"},
		{frame(2, 2, subHdr{0, 1, 1, 1}, subHdr{0, 1, 1, 1}), "overlapping sub-volumes at z=0"},
		{frame(2, 1, subHdr{0, 1, 1, 1}), "z=1 not covered"},
	} {
		if _, err := Format().Open(tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d-byte blob: error %v, want %q", len(tc.blob), err, tc.want)
		}
	}
	if _, err := Format().Open(frame(2, 2, subHdr{0, 1, 1, 1}, subHdr{1, 2, 2, 3})); err != nil {
		t.Errorf("well-framed two-table blob rejected: %v", err)
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
