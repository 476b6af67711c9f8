package deltafp

import (
	"math"
	"testing"
	"testing/quick"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/stats"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
	"scipp/internal/xrand"
)

// encodeDecode is a test helper running a full round trip.
func encodeDecode(t *testing.T, src *tensor.Tensor, opts Options) (*tensor.Tensor, *Decoder) {
	t.Helper()
	blob, err := Encode(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	return dec, cd.(*Decoder)
}

func relErr(ref, got float32) float64 {
	r := math.Abs(float64(ref))
	if r == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got)-float64(ref)) / r
}

func TestConstLine(t *testing.T) {
	src := tensor.New(tensor.F32, 1, 2, 64)
	for i := range src.F32s {
		src.F32s[i] = 42.5
	}
	dec, d := encodeDecode(t, src, Options{})
	raw, cnst, delta := d.nRaw, d.nConst, d.nDelta
	if cnst != 2 || raw != 0 || delta != 0 {
		t.Errorf("line modes raw=%d const=%d delta=%d, want all const", raw, cnst, delta)
	}
	for i := range dec.F16s {
		if dec.At32(i) != 42.5 {
			t.Fatalf("const decode wrong at %d: %g", i, dec.At32(i))
		}
	}
}

func TestSmoothLineIsDelta(t *testing.T) {
	w := 256
	src := tensor.New(tensor.F32, 1, 1, w)
	for i := 0; i < w; i++ {
		src.F32s[i] = 100 + float32(math.Sin(float64(i)*0.05))
	}
	dec, d := encodeDecode(t, src, Options{})
	delta := d.nDelta
	if delta != 1 {
		t.Fatalf("smooth line not delta-encoded: modes %v", d)
	}
	for i := 0; i < w; i++ {
		if e := relErr(src.F32s[i], dec.At32(i)); e > 0.01 {
			t.Fatalf("value %d error %.3f%% too large (ref %g got %g)", i, e*100, src.F32s[i], dec.At32(i))
		}
	}
	// And it must actually compress.
	st, err := BlobStats(mustEncode(t, src, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio < 2 {
		t.Errorf("smooth line ratio %.2f, want > 2x", st.Ratio)
	}
}

func mustEncode(t *testing.T, src *tensor.Tensor, opts Options) []byte {
	t.Helper()
	blob, err := Encode(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestAbruptLineFallsBackToRaw(t *testing.T) {
	// The second width spans three of the decoder's FP32 blocks.
	for _, w := range []int{128, 1100} {
		src := tensor.New(tensor.F32, 1, 1, w)
		r := xrand.New(5)
		for i := 0; i < w; i++ {
			src.F32s[i] = float32(r.NormFloat64()) * float32(math.Pow(10, float64(r.Intn(8))-4))
		}
		dec, d := encodeDecode(t, src, Options{})
		rawN := d.nRaw
		if rawN != 1 {
			t.Fatalf("wild line should be RAW; modes raw=%d", rawN)
		}
		// RAW is exact up to the FP16 emission.
		for i := 0; i < w; i++ {
			want := fp16.RoundTrip32(src.F32s[i])
			if dec.At32(i) != want {
				t.Fatalf("W=%d: raw line value %d: got %g want %g", w, i, dec.At32(i), want)
			}
		}
	}
}

func TestNonFiniteGoesRaw(t *testing.T) {
	src := tensor.New(tensor.F32, 1, 1, 8)
	src.F32s[3] = float32(math.Inf(1))
	src.F32s[5] = float32(math.NaN())
	dec, d := encodeDecode(t, src, Options{})
	rawN := d.nRaw
	if rawN != 1 {
		t.Error("non-finite line must be RAW")
	}
	if !dec.F16s[3].IsInf(1) {
		t.Error("Inf lost")
	}
	if !dec.F16s[5].IsNaN() {
		t.Error("NaN lost")
	}
}

func TestZeroDeltaByte(t *testing.T) {
	// Runs of identical values inside an otherwise varying line use the
	// reserved zero byte.
	w := 64
	src := tensor.New(tensor.F32, 1, 1, w)
	for i := 0; i < w; i++ {
		src.F32s[i] = 10 + float32(i/8) // steps with 8-long flats
	}
	dec, d := encodeDecode(t, src, Options{})
	delta := d.nDelta
	if delta != 1 {
		t.Fatalf("step line should delta-encode")
	}
	for i := 0; i < w; i++ {
		if e := relErr(src.F32s[i], dec.At32(i)); e > 0.01 {
			t.Fatalf("step line value %d error too large", i)
		}
	}
}

func TestErrorBoundOnClimateData(t *testing.T) {
	// The paper's headline quality claim: ~3% of values with >10% error,
	// concentrated near zero. On synthetic CAM5 data we require the >10%
	// fraction to stay below 5%.
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 64
	cfg.Width = 192
	s, err := synthetic.GenerateClimate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := encodeDecode(t, s.Data, Options{})
	ref := s.Data.F32s
	got := dec.ToF32().F32s
	st := stats.RelativeErrors(ref, got, 0.10)
	if st.FracAbove > 0.05 {
		t.Errorf("%.2f%% of values exceed 10%% error, want < 5%%", st.FracAbove*100)
	}
	// The error tail must be concentrated near zero, as the paper observes
	// ("primarily for small values close to zero due to floating-point
	// denormalization").
	if st.CountAboveThres > 0 {
		nearZeroFrac := float64(st.NearZeroAbove) / float64(st.CountAboveThres)
		if nearZeroFrac < 0.9 {
			t.Errorf("only %.0f%% of >10%% errors are near zero", 100*nearZeroFrac)
		}
	}
	if st.MeanRel > 0.03 {
		t.Errorf("mean relative error %.4f too large", st.MeanRel)
	}
}

func TestCompressesClimateData(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 64
	cfg.Width = 192
	s, err := synthetic.GenerateClimate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BlobStats(mustEncode(t, s.Data, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio < 2.0 {
		t.Errorf("climate compression ratio %.2f, want >= 2x vs FP32", st.Ratio)
	}
	if st.DeltaLines == 0 {
		t.Error("no lines delta-encoded on smooth climate data")
	}
	t.Logf("ratio %.2fx raw=%d const=%d delta=%d", st.Ratio, st.RawLines, st.ConstLines, st.DeltaLines)
}

// TestBlobStatsRecycles: BlobStats hands its decoder back to the pool, so
// a steady loop of calls allocates well under what an unrecycled Open does.
// The race detector drops a share of pool Puts at random, so the bound is
// half of Open's count rather than zero.
func TestBlobStatsRecycles(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels, cfg.Height, cfg.Width = 2, 8, 64
	s, err := synthetic.GenerateClimate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob := mustEncode(t, s.Data, Options{})
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

func TestChunkedMatchesSerial(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 2
	cfg.Height = 32
	cfg.Width = 96
	s, err := synthetic.GenerateClimate(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	blob := mustEncode(t, s.Data, Options{})
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := codec.Decode(cd)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := codec.DecodeParallel(cd, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.F16s {
		if serial.F16s[i] != parallel.F16s[i] {
			t.Fatalf("parallel decode differs at %d", i)
		}
	}
}

func TestWorkloadProfile(t *testing.T) {
	src := tensor.New(tensor.F32, 2, 4, 32)
	for i := range src.F32s {
		src.F32s[i] = float32(i % 7)
	}
	blob := mustEncode(t, src, Options{})
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	wl := cd.Workload()
	if wl.Chunks != 8 {
		t.Errorf("Chunks = %d, want 8", wl.Chunks)
	}
	if wl.BytesOut != 2*2*4*32 {
		t.Errorf("BytesOut = %d", wl.BytesOut)
	}
	if wl.BytesIn != len(blob) {
		t.Errorf("BytesIn = %d, want %d", wl.BytesIn, len(blob))
	}
}

func TestOptionAblations(t *testing.T) {
	// The exponent-window / mantissa trade-off must round-trip at every
	// supported width (ablation of §V-A's "arbitrary number of bits, 3 in
	// our case").
	w := 256
	src := tensor.New(tensor.F32, 1, 1, w)
	for i := 0; i < w; i++ {
		src.F32s[i] = 50 + float32(math.Sin(float64(i)*0.1))*3
	}
	for _, expBits := range []int{2, 3, 4} {
		dec, _ := encodeDecode(t, src, Options{ExpBits: expBits})
		for i := 0; i < w; i++ {
			if e := relErr(src.F32s[i], dec.At32(i)); e > 0.02 {
				t.Errorf("expBits=%d: value %d error %.3f", expBits, i, e)
				break
			}
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := Encode(tensor.New(tensor.F16, 1, 1, 4), Options{}); err == nil {
		t.Error("F16 input accepted")
	}
	if _, err := Encode(tensor.New(tensor.F32, 4), Options{}); err == nil {
		t.Error("rank-1 input accepted")
	}
	if _, err := Encode(tensor.New(tensor.F32, 0, 1, 4), Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Encode(tensor.New(tensor.F32, 1, 1, 4), Options{ExpBits: 7}); err == nil {
		t.Error("ExpBits 7 accepted")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Format().Open(nil); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := Format().Open(make([]byte, 64)); err == nil {
		t.Error("zero blob accepted")
	}
	src := tensor.New(tensor.F32, 1, 2, 16)
	blob, err := Encode(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{8, 20, len(blob) - 1} {
		if _, err := Format().Open(blob[:cut]); err == nil {
			t.Errorf("truncated blob (%d bytes) accepted", cut)
		}
	}
	// Corrupt the offset table.
	bad := append([]byte(nil), blob...)
	bad[20] = 0xFF
	bad[21] = 0xFF
	if _, err := Format().Open(bad); err == nil {
		t.Error("corrupt offsets accepted")
	}
}

func TestDecodeChunkValidation(t *testing.T) {
	src := tensor.New(tensor.F32, 1, 2, 16)
	blob := mustEncode(t, src, Options{})
	cd, err := Format().Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(tensor.F16, 1, 2, 16)
	if err := cd.DecodeChunk(-1, dst); err == nil {
		t.Error("negative chunk accepted")
	}
	if err := cd.DecodeChunk(99, dst); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if err := cd.DecodeChunk(0, tensor.New(tensor.F32, 1, 2, 16)); err == nil {
		t.Error("wrong dst dtype accepted")
	}
}

func TestQuickBoundedError(t *testing.T) {
	// Property: on smooth lines (random walk with bounded steps) every
	// decoded value stays within combined quantization + FP16 tolerance.
	f := func(seed uint32) bool {
		r := xrand.New(uint64(seed))
		w := 64 + r.Intn(128)
		src := tensor.New(tensor.F32, 1, 1, w)
		v := 10 + 20*r.Float32()
		for i := 0; i < w; i++ {
			src.F32s[i] = v
			v += (r.Float32() - 0.5) * 0.1 * v
		}
		blob, err := Encode(src, Options{})
		if err != nil {
			return false
		}
		cd, err := Format().Open(blob)
		if err != nil {
			return false
		}
		dec, err := codec.Decode(cd)
		if err != nil {
			return false
		}
		for i := 0; i < w; i++ {
			if relErr(src.F32s[i], dec.At32(i)) > 0.06 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSingleValueLine(t *testing.T) {
	src := tensor.New(tensor.F32, 1, 1, 1)
	src.F32s[0] = 3.25
	dec, _ := encodeDecode(t, src, Options{})
	if dec.At32(0) != 3.25 {
		t.Errorf("W=1 decode: %g", dec.At32(0))
	}
}

func BenchmarkEncode(b *testing.B) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 96
	cfg.Width = 384
	s, err := synthetic.GenerateClimate(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.Data.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s.Data, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 96
	cfg.Width = 384
	s, err := synthetic.GenerateClimate(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := Encode(s.Data, Options{})
	if err != nil {
		b.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.Data.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(cd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSample decodes one climate stack at the repo benchmark's
// deepcam_cold sample size.
func BenchmarkDecodeSample(b *testing.B) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 16
	cfg.Height = 192
	cfg.Width = 288
	s, err := synthetic.GenerateClimate(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := Encode(s.Data, Options{})
	if err != nil {
		b.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	dst := tensor.New(tensor.F16, cd.OutputShape()...)
	b.SetBytes(int64(dst.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.DecodeInto(cd, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeParallel(b *testing.B) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels = 4
	cfg.Height = 96
	cfg.Width = 384
	s, err := synthetic.GenerateClimate(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := Encode(s.Data, Options{})
	if err != nil {
		b.Fatal(err)
	}
	cd, err := Format().Open(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(s.Data.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeParallel(cd, 8); err != nil {
			b.Fatal(err)
		}
	}
}
