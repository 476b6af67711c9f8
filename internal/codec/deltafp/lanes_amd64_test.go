//go:build amd64 && !purego

package deltafp

import (
	"reflect"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/fp16"
	"scipp/internal/synthetic"
)

// TestLaneBufLayout pins the field offsets lanes_amd64.s addresses laneBuf
// and laneCursor by.
func TestLaneBufLayout(t *testing.T) {
	const row = laneBlock + codeSlack
	check := func(v any, want map[string]uintptr, size uintptr) {
		t.Helper()
		ty := reflect.TypeOf(v)
		for name, off := range want {
			f, ok := ty.FieldByName(name)
			if !ok || f.Offset != off {
				t.Errorf("%v.%s at offset %d, lanes_amd64.s expects %d", ty, name, f.Offset, off)
			}
		}
		if size != 0 && ty.Size() != size {
			t.Errorf("%v is %d bytes, lanes_amd64.s expects %d", ty, ty.Size(), size)
		}
	}
	codes := uintptr(96)
	piv := codes + 8*row
	reset := piv + 32*laneBlock
	check(laneBuf{}, map[string]uintptr{
		"v": 0, "base": 32, "mul": 64, "codes": codes, "piv": piv, "reset": reset, "codesT": reset + 8*laneBlock,
	}, 0)
	check(laneCursor{}, map[string]uintptr{"pos": 0, "end": 8, "lineEnd": 16, "segs": 24}, 32)
}

// TestDecodeWithoutAVX2 takes decodeGroup's path for CPUs without AVX2:
// every line through decodeLine. The kernel and group cases must decode as
// before, and a climate stack bit for bit as the lane kernel decodes it:
// 21 rows, so that groups of eight straddle channels and the last group
// is partial, and 200 columns, not a multiple of eight.
func TestDecodeWithoutAVX2(t *testing.T) {
	cfg := synthetic.DefaultClimateConfig()
	cfg.Channels, cfg.Height, cfg.Width = 3, 21, 200
	s, err := synthetic.GenerateClimate(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(s.Data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got [2][2][]fp16.Bits // [lane kernel on, off][Format, FormatHWC]
	defer func(on bool) { useLanes = on }(useLanes)
	for k, on := range []bool{true, false} {
		useLanes = on
		for f, fm := range []codec.Format{Format(), FormatHWC()} {
			cd, err := fm.Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			out, err := codec.Decode(cd)
			if err != nil {
				t.Fatal(err)
			}
			got[k][f] = out.F16s
		}
	}
	for f := range got[0] {
		for i, v := range got[0][f] {
			if v != got[1][f][i] {
				t.Fatalf("format %d: value %d is %#04x with the lane kernel, %#04x without", f, i, v, got[1][f][i])
			}
		}
	}
	t.Run("pinned", TestDeltaKernelPinnedCases)
	t.Run("groups", TestDeltaKernelGroups)
	t.Run("framing", TestDeltaKernelGroupFraming)
}
