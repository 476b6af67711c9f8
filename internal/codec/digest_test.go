package codec_test

import (
	"encoding/binary"
	"math"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/lut"
	"scipp/internal/sweep"
	"scipp/internal/synthetic"
)

// TestDecodedDigests pins the decoded bits of seeded samples to digests
// captured at commit 2c08fee, before the decode kernels were rewritten
// (value-table fusion, FP16 fast path, width-specialised lookup,
// segment-wise deltafp); the two odd-dim cosmo-lut rows were captured at
// 8379a6f, before the four-voxel LUT loop. The repo benchmark verifies
// samples against a reference decoded by the same code, so it cannot see a
// kernel that changed its answers; these constants can.
func TestDecodedDigests(t *testing.T) {
	climCfg := synthetic.DefaultClimateConfig()
	climCfg.Channels, climCfg.Height, climCfg.Width = 16, 32, 48
	clim, err := synthetic.GenerateClimate(climCfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	climBlob, err := deltafp.Encode(clim.Data, deltafp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// That sample has no RAW line and no zero delta code, so a second one
	// is rewritten to take every path of the deltafp kernel: a staircase
	// line (zero codes), a line with an Inf (RAW) and a line that climbs
	// past 65520 (DELTA values that convert to Inf). Its digests were
	// captured with the per-value kernel that preceded the branch-free one.
	rich, err := synthetic.GenerateClimate(climCfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	line := func(l int) []float32 { return rich.Data.F32s[l*48 : (l+1)*48] }
	for x := range line(5) {
		line(5)[x] = 10 + float32(x/8)
	}
	line(40)[17] = float32(math.Inf(1))
	for x := range line(70) {
		line(70)[x] = 65000 + 20*float32(x)
	}
	richBlob, err := deltafp.Encode(rich.Data, deltafp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkKernelCoverage(t, richBlob)
	cosmoBlob := func(dim, maxCount int) []byte {
		cfg := synthetic.DefaultCosmoConfig()
		cfg.Dim, cfg.MaxCount = dim, maxCount
		s, err := synthetic.GenerateCosmo(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := lut.Encode(s.Channels, s.Dim)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	wide, narrow := cosmoBlob(16, 600), cosmoBlob(16, 5) // 2-byte and 1-byte keys
	// Planes of 17^2 and 33^2 voxels are not a multiple of four, so the
	// kernel's four-voxel loop leaves a tail on every z-slice.
	oddNarrow, oddWide := cosmoBlob(17, 5), cosmoBlob(33, 600)
	for _, w := range []struct {
		blob []byte
		kw   int
	}{{wide, 2}, {narrow, 1}, {oddNarrow, 1}, {oddWide, 2}} {
		st, err := lut.Format().Open(w.blob)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.(*lut.Decoder).KeyWidth(0); got != w.kw {
			t.Fatalf("cosmo blob has %d-byte keys, want %d", got, w.kw)
		}
	}

	cases := []struct {
		name   string
		format codec.Format
		blob   []byte
		want   uint64
	}{
		{"deltafp", deltafp.Format(), climBlob, 0xb04e4eab8d09dc37},
		{"deltafp-hwc", deltafp.FormatHWC(), climBlob, 0xc09f01b30ffe01d3},
		{"deltafp/every-path", deltafp.Format(), richBlob, 0x12ccf480fdfd8036},
		{"deltafp-hwc/every-path", deltafp.FormatHWC(), richBlob, 0x89887fd5356fe8d6},
		{"cosmo-lut/2-byte", lut.Format(), wide, 0xccc1604d17161a91},
		{"cosmo-lut/1-byte", lut.Format(), narrow, 0x93a50f4180455caf},
		{"cosmo-lut-unfused/2-byte", lut.FormatWithOp(lut.OpLog1p, false), wide, 0xccc1604d17161a91},
		{"cosmo-lut/identity", lut.FormatWithOp(lut.OpIdentity, true), wide, 0x090366be77e27f98},
		{"cosmo-lut/1-byte/17^3", lut.Format(), oddNarrow, 0xc413f10e7467979c},
		{"cosmo-lut/2-byte/33^3", lut.Format(), oddWide, 0xeaade6c7d1a74bfc},
	}
	for _, tc := range cases {
		cd, err := tc.format.Open(tc.blob)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out, err := codec.Decode(cd)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sweep.DigestSample(sweep.FNVOffset, 0, out); got != tc.want {
			t.Errorf("%s: decoded digest %#016x, pinned %#016x", tc.name, got, tc.want)
		}
	}
}

// checkKernelCoverage fails unless blob holds RAW and DELTA lines and zero
// delta codes, and decodes to FP16 subnormals, infinities and normals.
func checkKernelCoverage(t *testing.T, blob []byte) {
	t.Helper()
	st, err := deltafp.BlobStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.RawLines == 0 || st.DeltaLines == 0 {
		t.Errorf("line modes %+v: want RAW and DELTA lines", st)
	}
	if zeroCodes(blob) == 0 {
		t.Error("no zero delta codes")
	}
	cd, err := deltafp.Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	var sub, inf, normal int
	for _, h := range out.F16s {
		switch {
		case h&0x7FFF == 0x7C00:
			inf++
		case h&0x7C00 == 0 && h&0x03FF != 0:
			sub++
		case h&0x7C00 != 0:
			normal++
		}
	}
	if sub == 0 || inf == 0 || normal == 0 {
		t.Errorf("decodes to %d subnormal, %d infinite, %d normal values: want all three", sub, inf, normal)
	}
}

// zeroCodes counts the exact-zero delta codes of a well-formed deltafp
// blob, walking its layout: a 20-byte header (magic, C, H, W, expBits), the
// line offset table, then per DELTA line a mode byte, a segment count, and
// per segment a 7-byte header (pivot, exponent base, value count) followed
// by one code per value after the pivot.
func zeroCodes(blob []byte) int {
	le := binary.LittleEndian
	nLines := int(le.Uint32(blob[4:])) * int(le.Uint32(blob[8:]))
	payload := blob[20+4*(nLines+1):]
	n := 0
	for l := 0; l < nLines; l++ {
		line := payload[le.Uint32(blob[20+4*l:]):le.Uint32(blob[24+4*l:])]
		if line[0] != 2 { // DELTA
			continue
		}
		pos := 3
		for s := 0; s < int(le.Uint16(line[1:])); s++ {
			count := int(le.Uint16(line[pos+5:]))
			for _, b := range line[pos+7 : pos+6+count] {
				if b == 0 {
					n++
				}
			}
			pos += 6 + count
		}
	}
	return n
}
