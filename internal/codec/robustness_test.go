package codec_test

// Adversarial-input robustness: every registered format must reject
// arbitrary garbage, random truncations and random byte flips of valid
// blobs with an error — never a panic or a hang. Decoders run on data
// staged through shared filesystems; a corrupt sample must fail cleanly.

import (
	"fmt"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/gzipc"
	"scipp/internal/codec/lut"
	"scipp/internal/codec/rawfmt"
	"scipp/internal/codec/zfpc"
	"scipp/internal/core"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// tryOpenDecode opens and fully decodes, converting panics into errors.
func tryOpenDecode(f codec.Format, blob []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	cd, err := f.Open(blob)
	if err != nil {
		return err
	}
	_, err = codec.Decode(cd)
	return err
}

// buildValidBlobs returns one valid encoded blob per registered format
// name. It deliberately avoids *testing.T so the fuzz targets can reuse it
// as their seed corpus; the same blob serves every format that shares an
// encoding (deltafp/deltafp-hwc, cosmo-lut/cosmo-lut-unfused).
func buildValidBlobs() (map[string][]byte, error) {
	climCfg := synthetic.DefaultClimateConfig()
	climCfg.Channels = 2
	climCfg.Height = 16
	climCfg.Width = 48
	clim, err := core.BuildClimateDataset(climCfg, 1, core.Plugin)
	if err != nil {
		return nil, err
	}
	climRaw, err := core.BuildClimateDataset(climCfg, 1, core.Baseline)
	if err != nil {
		return nil, err
	}
	climGz, err := core.BuildClimateDataset(climCfg, 1, core.Gzip)
	if err != nil {
		return nil, err
	}
	cosmoCfg := synthetic.DefaultCosmoConfig()
	cosmoCfg.Dim = 16
	cosmo, err := core.BuildCosmoDataset(cosmoCfg, 1, core.Plugin)
	if err != nil {
		return nil, err
	}
	cosmoRaw, err := core.BuildCosmoDataset(cosmoCfg, 1, core.Baseline)
	if err != nil {
		return nil, err
	}
	cosmoGz, err := core.BuildCosmoDataset(cosmoCfg, 1, core.Gzip)
	if err != nil {
		return nil, err
	}
	// zfpc comparator blobs: a smooth 2D field and a small 3D volume.
	r := xrand.New(4242)
	field := make([]float32, 16*48)
	for i := range field {
		field[i] = float32(r.NormFloat64())
	}
	z2d, err := zfpc.Encode(field, 16, 48, zfpc.Options{})
	if err != nil {
		return nil, err
	}
	vol := make([]float32, 8*8*8)
	for i := range vol {
		vol[i] = float32(r.NormFloat64())
	}
	z3d, err := zfpc.Encode3D(vol, 8, zfpc.Options{})
	if err != nil {
		return nil, err
	}
	station, err := synthetic.GenerateWeather(synthetic.DefaultWeatherConfig(), 3)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"raw-series":        synthetic.WeatherToRecord(station),
		"deltafp":           clim.Blobs[0],
		"deltafp-hwc":       clim.Blobs[0],
		"raw-deepcam":       climRaw.Blobs[0],
		"gzip+raw-deepcam":  climGz.Blobs[0],
		"cosmo-lut":         cosmo.Blobs[0],
		"cosmo-lut-unfused": cosmo.Blobs[0],
		"raw-cosmo":         cosmoRaw.Blobs[0],
		"gzip+raw-cosmo":    cosmoGz.Blobs[0],
		"zfpc2d":            z2d,
		"zfpc3d":            z3d,
	}, nil
}

func validBlobs(t *testing.T) map[string][]byte {
	t.Helper()
	m, err := buildValidBlobs()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// formatByName resolves a format through its public constructor where one
// exists (exercising the constructors as well as the registry) and falls
// back to the registry for the rest. Shared with the fuzz targets, so no
// *testing.T.
func formatByName(name string) (codec.Format, error) {
	switch name {
	case "deltafp":
		return deltafp.Format(), nil
	case "deltafp-hwc":
		return deltafp.FormatHWC(), nil
	case "raw-deepcam":
		return rawfmt.DeepCAM(), nil
	case "gzip+raw-deepcam":
		return gzipc.Wrap(rawfmt.DeepCAM()), nil
	case "cosmo-lut":
		return lut.Format(), nil
	case "cosmo-lut-unfused":
		return lut.FormatWithOp(lut.OpLog1p, false), nil
	case "raw-cosmo":
		return rawfmt.Cosmo(), nil
	case "gzip+raw-cosmo":
		return gzipc.Wrap(rawfmt.Cosmo()), nil
	}
	// zfpc registers through the codec registry (package init).
	return codec.Lookup(name)
}

func formatFor(t *testing.T, name string) codec.Format {
	t.Helper()
	f, err := formatByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidBlobsDecode(t *testing.T) {
	for name, blob := range validBlobs(t) {
		if err := tryOpenDecode(formatFor(t, name), blob); err != nil {
			t.Errorf("%s: valid blob failed: %v", name, err)
		}
	}
}

// TestOutputShapeAllocFree pins that an opened decoder of every registered
// format reports its shape without allocating: the decode stage and the
// data service's miss path ask once per sample, through the interface.
func TestOutputShapeAllocFree(t *testing.T) {
	for name, blob := range validBlobs(t) {
		cd, err := formatFor(t, name).Open(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var shape tensor.Shape
		if n := testing.AllocsPerRun(100, func() { shape = cd.OutputShape() }); n != 0 {
			t.Errorf("%s: OutputShape allocates %v times per call", name, n)
		}
		if shape.Elems() == 0 {
			t.Errorf("%s: empty shape %v", name, shape)
		}
		codec.Recycle(cd)
	}
}

func TestRandomGarbageNeverPanics(t *testing.T) {
	r := xrand.New(99)
	for name := range validBlobs(t) {
		f := formatFor(t, name)
		for trial := 0; trial < 200; trial++ {
			n := r.Intn(512)
			garbage := make([]byte, n)
			for i := range garbage {
				garbage[i] = byte(r.Uint64())
			}
			if err := tryOpenDecode(f, garbage); err == nil {
				// Vanishingly unlikely that garbage forms a valid blob of
				// any size; treat success as suspicious only for non-empty
				// inputs.
				if n > 0 {
					t.Errorf("%s: random garbage (%d bytes) decoded successfully", name, n)
				}
			} else if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestTruncationsNeverPanic(t *testing.T) {
	r := xrand.New(7)
	for name, blob := range validBlobs(t) {
		f := formatFor(t, name)
		for trial := 0; trial < 100; trial++ {
			cut := r.Intn(len(blob))
			if err := tryOpenDecode(f, blob[:cut]); err != nil {
				if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
					t.Fatalf("%s: truncation at %d: %v", name, cut, err)
				}
			}
		}
	}
}

func TestByteFlipsNeverPanic(t *testing.T) {
	r := xrand.New(13)
	for name, blob := range validBlobs(t) {
		f := formatFor(t, name)
		for trial := 0; trial < 300; trial++ {
			mutated := append([]byte(nil), blob...)
			// Flip 1-4 random bytes.
			for k := 0; k <= r.Intn(4); k++ {
				mutated[r.Intn(len(mutated))] ^= byte(1 + r.Intn(255))
			}
			if err := tryOpenDecode(f, mutated); err != nil {
				if len(err.Error()) > 5 && err.Error()[:5] == "PANIC" {
					t.Fatalf("%s: byte flip: %v", name, err)
				}
			}
			// Decoding may succeed with wrong content (flips inside payload
			// values) — that is acceptable; panics and hangs are not.
		}
	}
}

// TestCraftedBlobsRejected pins hand-built hostile blobs that once got past
// Open: each must come back as an error from Open, not reach decode.
func TestCraftedBlobsRejected(t *testing.T) {
	cases := []struct {
		name, format string
		blob         []byte
	}{
		{
			// C=1 H=1 W=4, one line whose whole payload is the DELTA mode
			// byte: decode read the segment count past the line's end.
			name: "deltafp DELTA line shorter than its header", format: "deltafp",
			blob: []byte("CPFD\x01\x00\x00\x00\x01\x00\x00\x00\x04\x00\x00\x00\x03\x00\x00\x00" +
				"\x00\x00\x00\x00\x01\x00\x00\x00" + "\x02"),
		},
		{
			name: "deltafp DELTA line with half a segment count", format: "deltafp-hwc",
			blob: []byte("CPFD\x01\x00\x00\x00\x01\x00\x00\x00\x04\x00\x00\x00\x03\x00\x00\x00" +
				"\x00\x00\x00\x00\x02\x00\x00\x00" + "\x02\x01"),
		},
		{
			// C=H=2^31 W=1 in 64 bytes: 2*C*H*W and the offset-table size
			// 4*(C*H+1) wrapped, so the size guards passed and the offset
			// table allocation panicked with a length out of range.
			name: "deltafp C*H overflowing int", format: "deltafp",
			blob: append([]byte("CPFD\x00\x00\x00\x80\x00\x00\x00\x80\x01\x00\x00\x00\x03\x00\x00\x00"),
				make([]byte, 44)...),
		},
	}
	for _, tc := range cases {
		if _, err := formatFor(t, tc.format).Open(tc.blob); err == nil {
			t.Errorf("%s: Open accepted the blob", tc.name)
		}
	}
}
