package codec_test

// Native fuzz targets for every registered codec.Format. Two families:
//
//   - FuzzFormatsOpenDecode feeds arbitrary bytes to every format at once;
//     the only contract is "error, never panic" (robustness_test.go states
//     the same property over fixed corpora — the fuzzer explores beyond it).
//   - Fuzz*RoundTrip targets generate structured inputs from fuzzed seeds,
//     encode them with the real encoders, and check decode(encode(x))
//     against the documented accuracy bound of each codec: bit-identical
//     for the raw/LUT paths, relative-error bounds for deltafp and zfpc.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/ and run on every plain
// `go test`; CI additionally runs a short -fuzz smoke (see Makefile fuzz).

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/gzipc"
	"scipp/internal/codec/lut"
	"scipp/internal/codec/seriesfmt"
	"scipp/internal/codec/zfpc"
	"scipp/internal/fp16"
	"scipp/internal/h5lite"
	"scipp/internal/stats"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// fuzzRelErr mirrors the codec packages' own relative-error metric.
func fuzzRelErr(ref, got float32) float64 {
	r := float64(ref)
	d := math.Abs(float64(got) - r)
	if math.Abs(r) < 1e-6 {
		return d
	}
	return d / math.Abs(r)
}

// mustDecode opens blob with the named registered format and fully decodes
// it, failing the fuzz run on any error: these targets only feed blobs
// produced by the matching encoder, so decode must succeed.
func mustDecode(t *testing.T, name string, blob []byte) *tensor.Tensor {
	t.Helper()
	f, err := formatByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := f.Open(blob)
	if err != nil {
		t.Fatalf("%s: open: %v", name, err)
	}
	out, err := codec.Decode(cd)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	return out
}

// FuzzFormatsOpenDecode drives every registered format over the same fuzzed
// input. Corrupt or adversarial bytes must produce an error (or, for byte
// flips that land in payload values, a wrong-but-clean decode) — never a
// panic. Seeded with one valid blob per format so the fuzzer starts from
// deep inside each parser.
func FuzzFormatsOpenDecode(f *testing.F) {
	blobs, err := buildValidBlobs()
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, 0, len(blobs))
	for name := range blobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(blobs[name])
	}
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range codec.Formats() {
			fm, err := codec.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := tryOpenDecode(fm, data); err != nil &&
				strings.HasPrefix(err.Error(), "PANIC") {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// FuzzDeltaFPRoundTrip checks the documented deltafp accuracy bound on
// smooth random-walk lines (quantization + FP16 relative error <= 0.06,
// the bound TestQuickBoundedError pins), and that the fused HWC decoder
// is bit-identical to CHW-decode-then-transpose for the same blob.
func FuzzDeltaFPRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4242), uint8(1), uint8(3), uint8(80))
	f.Fuzz(func(t *testing.T, seed uint64, c8, h8, w8 uint8) {
		c := 1 + int(c8)%2
		h := 1 + int(h8)%4
		w := 16 + int(w8)%113
		r := xrand.New(seed)
		src := tensor.New(tensor.F32, c, h, w)
		for line := 0; line < c*h; line++ {
			v := 10 + 20*r.Float32()
			for x := 0; x < w; x++ {
				src.F32s[line*w+x] = v
				v += (r.Float32() - 0.5) * 0.1 * v
			}
		}
		blob, err := deltafp.Encode(src, deltafp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dec := mustDecode(t, "deltafp", blob)
		for i := range src.F32s {
			if e := fuzzRelErr(src.F32s[i], dec.At32(i)); e > 0.06 {
				t.Fatalf("value %d: rel err %.4f > 0.06 (ref %g got %g)",
					i, e, src.F32s[i], dec.At32(i))
			}
		}
		want := tensor.TransposeCHWtoHWC(dec)
		hwc := mustDecode(t, "deltafp-hwc", blob)
		if !hwc.Shape.Equal(want.Shape) {
			t.Fatalf("hwc shape %v, want %v", hwc.Shape, want.Shape)
		}
		for i := range want.F16s {
			if hwc.F16s[i] != want.F16s[i] {
				t.Fatalf("fused HWC differs from transpose at %d", i)
			}
		}
	})
}

// FuzzLUTRoundTrip checks both LUT variants decode bit-identically to the
// reference fp16.FromFloat32(OpLog1p.Apply(count)) for arbitrary particle
// counts, and that fused and unfused agree. Dims run 2..17, so the fused
// decode's planes of 4..289 voxels take both of its paths: whole 16-voxel
// blocks through the AVX-512 gather kernel where the host has it, and the
// rest (every plane below 16 voxels, and each plane's tail) through the
// portable body; fused tables of 4n+1..4n+3 groups end in the portable fuse
// the same way. Under -tags purego every decode is portable.
func FuzzLUTRoundTrip(f *testing.F) {
	f.Add(uint64(7), uint8(2), uint16(300))
	f.Add(uint64(0), uint8(6), uint16(2047))
	f.Add(uint64(3), uint8(15), uint16(40))
	f.Add(uint64(5), uint8(14), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, dim8 uint8, max16 uint16) {
		dim := 2 + int(dim8)%16
		maxCount := int(max16)%2048 + 1
		n := dim * dim * dim
		r := xrand.New(seed)
		var ch [4][]int16
		for c := range ch {
			ch[c] = make([]int16, n)
			for i := range ch[c] {
				ch[c][i] = int16(r.Intn(maxCount + 1))
			}
		}
		blob, err := lut.Encode(ch, dim)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"cosmo-lut", "cosmo-lut-unfused"} {
			out := mustDecode(t, name, blob)
			for c := 0; c < 4; c++ {
				for i := 0; i < n; i++ {
					want := fp16.FromFloat32(lut.OpLog1p.Apply(ch[c][i]))
					if out.F16s[c*n+i] != want {
						t.Fatalf("%s: channel %d voxel %d: %v != %v",
							name, c, i, out.F16s[c*n+i], want)
					}
				}
			}
		}
	})
}

// FuzzRawCosmoRoundTrip checks the raw CosmoFlow record decodes
// bit-identically to float32(log1p(count)) per voxel, directly and through
// the gzip container.
func FuzzRawCosmoRoundTrip(f *testing.F) {
	f.Add(uint64(3), uint8(0))
	f.Add(uint64(99), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, dim8 uint8) {
		dim := 2 + int(dim8)%7
		n := dim * dim * dim
		r := xrand.New(seed)
		s := &synthetic.CosmoSample{Dim: dim}
		for c := range s.Channels {
			s.Channels[c] = make([]int16, n)
			for i := range s.Channels[c] {
				s.Channels[c][i] = int16(r.Intn(1000))
			}
		}
		for i := range s.Params {
			s.Params[i] = r.Float32()
		}
		rec := synthetic.CosmoToRecord(s)
		gz, err := gzipc.Encode(rec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			blob []byte
		}{{"raw-cosmo", rec}, {"gzip+raw-cosmo", gz}} {
			out := mustDecode(t, tc.name, tc.blob)
			for c := 0; c < 4; c++ {
				for i := 0; i < n; i++ {
					want := float32(math.Log1p(float64(s.Channels[c][i])))
					if out.F32s[c*n+i] != want {
						t.Fatalf("%s: channel %d voxel %d: %g != %g",
							tc.name, c, i, out.F32s[c*n+i], want)
					}
				}
			}
		}
	})
}

// FuzzRawDeepCAMRoundTrip checks the HDF5-lite climate container is a
// bit-identical F32 carrier, directly and through the gzip container.
func FuzzRawDeepCAMRoundTrip(f *testing.F) {
	f.Add(uint64(5), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(77), uint8(2), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, c8, h8, w8 uint8) {
		c := 1 + int(c8)%3
		h := 1 + int(h8)%8
		w := 1 + int(w8)%8
		r := xrand.New(seed)
		src := tensor.New(tensor.F32, c, h, w)
		for i := range src.F32s {
			src.F32s[i] = float32(r.NormFloat64())
		}
		file := h5lite.NewFile()
		file.Put("climate/data", src)
		var buf bytes.Buffer
		if err := file.Write(&buf); err != nil {
			t.Fatal(err)
		}
		gz, err := gzipc.Encode(buf.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			blob []byte
		}{{"raw-deepcam", buf.Bytes()}, {"gzip+raw-deepcam", gz}} {
			out := mustDecode(t, tc.name, tc.blob)
			if !out.Shape.Equal(src.Shape) {
				t.Fatalf("%s: shape %v, want %v", tc.name, out.Shape, src.Shape)
			}
			for i := range src.F32s {
				if out.F32s[i] != src.F32s[i] {
					t.Fatalf("%s: value %d: %g != %g",
						tc.name, i, out.F32s[i], src.F32s[i])
				}
			}
		}
	})
}

// FuzzSeriesRoundTrip checks the variable-length station-series format on
// generated archives of fuzzed shape: the decode is bit-identical to the
// generated series (dead stations of length 0 included), ProbeShape reads
// the same per-sample shape off the header alone, Params recovers the label
// — and a record cut short or grown by a byte is rejected by its length
// check rather than decoded past its end.
func FuzzSeriesRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), uint8(95), uint16(0), uint8(0))
	f.Add(uint64(9), uint8(0), uint8(0), uint8(0), uint16(7), uint8(1))
	f.Add(uint64(77), uint8(254), uint8(5), uint8(2), uint16(511), uint8(29))
	f.Fuzz(func(t *testing.T, seed uint64, c8, min8, span8 uint8, index uint16, cut uint8) {
		cfg := synthetic.DefaultWeatherConfig()
		cfg.Seed = seed
		cfg.Channels = 1 + int(c8)%255
		cfg.MinLen = int(min8) % 32
		cfg.MaxLen = cfg.MinLen + int(span8)%96
		s, err := synthetic.GenerateWeather(cfg, int(index))
		if err != nil {
			t.Fatal(err)
		}
		blob := synthetic.WeatherToRecord(s)
		out := mustDecode(t, "raw-series", blob)
		if !out.Shape.Equal(s.Data.Shape) {
			t.Fatalf("shape %v, want %v", out.Shape, s.Data.Shape)
		}
		for i, v := range s.Data.F32s {
			if math.Float32bits(out.F32s[i]) != math.Float32bits(v) {
				t.Fatalf("value %d: %g != %g", i, out.F32s[i], v)
			}
		}
		dt, shape, err := codec.ProbeShape(seriesfmt.Series(), blob)
		if err != nil || dt != tensor.F32 || !shape.Equal(s.Data.Shape) {
			t.Fatalf("ProbeShape = %v %v %v, want F32 %v", dt, shape, err, s.Data.Shape)
		}
		if p, err := seriesfmt.Params(blob); err != nil || p != s.Params {
			t.Fatalf("Params = %v %v, want %v", p, err, s.Params)
		}
		short := blob[:len(blob)-1-int(cut)%len(blob)]
		long := append(append([]byte(nil), blob...), cut)
		for _, bad := range [][]byte{short, long} {
			if _, err := seriesfmt.Series().Open(bad); err == nil {
				t.Fatalf("record of %d bytes (valid: %d) opened", len(bad), len(blob))
			}
			if _, err := seriesfmt.Params(bad); err == nil {
				t.Fatalf("Params read a record of %d bytes (valid: %d)", len(bad), len(blob))
			}
		}
	})
}

// FuzzZfpcRoundTrip checks both zfpc comparator formats on smooth fields at
// rate 10: max relative error <= 0.02 in 2D and <= 0.03 in 3D, the bounds
// the zfpc package tests document.
func FuzzZfpcRoundTrip(f *testing.F) {
	f.Add(uint64(11), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(123), uint8(28), uint8(44), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, h8, w8, d8 uint8) {
		h := 4 + int(h8)%61
		w := 4 + int(w8)%61
		d := 4 + int(d8)%13
		r := xrand.New(seed)
		base := 50 + 100*r.Float64()
		amp := base * (0.05 + 0.1*r.Float64())
		fx := 0.05 + 0.25*r.Float64()
		fy := 0.05 + 0.25*r.Float64()

		field := make([]float32, h*w)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				field[y*w+x] = float32(base +
					amp*math.Sin(fx*float64(x))*math.Cos(fy*float64(y)))
			}
		}
		blob2, err := zfpc.Encode(field, h, w, zfpc.Options{Rate: 10})
		if err != nil {
			t.Fatal(err)
		}
		out2 := mustDecode(t, "zfpc2d", blob2)
		if st := stats.RelativeErrors(field, out2.F32s, 0.01); st.MaxRel > 0.02 {
			t.Fatalf("zfpc2d %dx%d: max rel err %.4f > 0.02", h, w, st.MaxRel)
		}

		vol := make([]float32, d*d*d)
		for z := 0; z < d; z++ {
			for y := 0; y < d; y++ {
				for x := 0; x < d; x++ {
					vol[(z*d+y)*d+x] = float32(base +
						amp*math.Sin(fx*float64(x+z))*math.Cos(fy*float64(y)))
				}
			}
		}
		blob3, err := zfpc.Encode3D(vol, d, zfpc.Options{Rate: 10})
		if err != nil {
			t.Fatal(err)
		}
		out3 := mustDecode(t, "zfpc3d", blob3)
		if st := stats.RelativeErrors(vol, out3.F32s, 0.01); st.MaxRel > 0.03 {
			t.Fatalf("zfpc3d %d^3: max rel err %.4f > 0.03", d, st.MaxRel)
		}
	})
}
