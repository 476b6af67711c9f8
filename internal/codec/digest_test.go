package codec_test

import (
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
// segment-wise deltafp). The repo benchmark verifies samples against a
// reference decoded by the same code, so it cannot see a kernel that
// changed its answers; these constants can.
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
	cosmoBlob := func(maxCount int) []byte {
		cfg := synthetic.DefaultCosmoConfig()
		cfg.Dim, cfg.MaxCount = 16, maxCount
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
	wide, narrow := cosmoBlob(600), cosmoBlob(5) // 2-byte and 1-byte keys
	for _, w := range []struct {
		blob []byte
		kw   int
	}{{wide, 2}, {narrow, 1}} {
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
		{"cosmo-lut/2-byte", lut.Format(), wide, 0xccc1604d17161a91},
		{"cosmo-lut/1-byte", lut.Format(), narrow, 0x93a50f4180455caf},
		{"cosmo-lut-unfused/2-byte", lut.FormatWithOp(lut.OpLog1p, false), wide, 0xccc1604d17161a91},
		{"cosmo-lut/identity", lut.FormatWithOp(lut.OpIdentity, true), wide, 0x090366be77e27f98},
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
