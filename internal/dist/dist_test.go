package dist

import (
	"math"
	"sync"
	"testing"

	"scipp/internal/xrand"
)

func runAllReduce(t *testing.T, n, size int, mean bool) [][]float32 {
	t.Helper()
	g, err := New(Config{Ranks: n})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float32, n)
	r := xrand.New(uint64(n*1000 + size))
	for rk := range data {
		data[rk] = make([]float32, size)
		for i := range data[rk] {
			data[rk][i] = float32(r.NormFloat64())
		}
	}
	want := make([]float64, size)
	for rk := range data {
		for i, v := range data[rk] {
			want[i] += float64(v)
		}
	}
	if mean {
		for i := range want {
			want[i] /= float64(n)
		}
	}
	var wg sync.WaitGroup
	for rk := 0; rk < n; rk++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var err error
			if mean {
				err = g.AllReduceMean(rank, data[rank])
			} else {
				err = g.AllReduceSum(rank, data[rank])
			}
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}(rk)
	}
	wg.Wait()
	for rk := range data {
		for i := range data[rk] {
			if math.Abs(float64(data[rk][i])-want[i]) > 1e-4*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d size=%d rank %d elem %d: %g want %g",
					n, size, rk, i, data[rk][i], want[i])
			}
		}
	}
	return data
}

func TestAllReduceSumSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		for _, size := range []int{1, 7, 64, 1000} {
			if size < n {
				continue
			}
			runAllReduce(t, n, size, false)
		}
	}
}

func TestAllReduceUnevenSegments(t *testing.T) {
	// Sizes not divisible by n exercise the boundary arithmetic.
	runAllReduce(t, 3, 10, false)
	runAllReduce(t, 4, 9, false)
	runAllReduce(t, 5, 11, false)
}

func TestAllReduceMean(t *testing.T) {
	runAllReduce(t, 4, 32, true)
}

func TestAllRanksIdentical(t *testing.T) {
	data := runAllReduce(t, 4, 64, false)
	for rk := 1; rk < len(data); rk++ {
		for i := range data[0] {
			if data[rk][i] != data[0][i] {
				t.Fatalf("ranks 0 and %d differ at %d", rk, i)
			}
		}
	}
}

func TestRepeatedCollectives(t *testing.T) {
	g, err := New(Config{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for rk := 0; rk < 3; rk++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				d := []float32{float32(rank), 1, 2}
				if err := g.AllReduceSum(rank, d); err != nil {
					t.Errorf("iter %d rank %d: %v", iter, rank, err)
					return
				}
				if d[0] != 3 || d[1] != 3 || d[2] != 6 {
					t.Errorf("iter %d rank %d: %v", iter, rank, d)
					return
				}
				if err := g.Barrier(rank); err != nil {
					t.Errorf("iter %d rank %d barrier: %v", iter, rank, err)
					return
				}
			}
		}(rk)
	}
	wg.Wait()
}

func TestBarrier(t *testing.T) {
	g, err := New(Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var phase [4]int
	var wg sync.WaitGroup
	for rk := 0; rk < 4; rk++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for p := 0; p < 10; p++ {
				phase[rank] = p
				if err := g.Barrier(rank); err != nil {
					t.Errorf("rank %d barrier: %v", rank, err)
					return
				}
				// After the barrier everyone must be at phase >= p.
				for other := 0; other < 4; other++ {
					if phase[other] < p {
						t.Errorf("rank %d saw rank %d at phase %d < %d", rank, other, phase[other], p)
						return
					}
				}
				if err := g.Barrier(rank); err != nil {
					t.Errorf("rank %d barrier: %v", rank, err)
					return
				}
			}
		}(rk)
	}
	wg.Wait()
}

func TestGroupValidation(t *testing.T) {
	if _, err := New(Config{Ranks: 0}); err == nil {
		t.Error("zero-size group accepted")
	}
	g, _ := New(Config{Ranks: 2})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank accepted")
		}
	}()
	_ = g.AllReduceSum(5, []float32{1})
}

func TestSingleRankNoOp(t *testing.T) {
	g, _ := New(Config{Ranks: 1})
	d := []float32{1, 2, 3}
	if err := g.AllReduceSum(0, d); err != nil {
		t.Fatal(err)
	}
	if d[0] != 1 || d[2] != 3 {
		t.Error("single-rank allreduce changed data")
	}
}

func TestRingTimeModel(t *testing.T) {
	if RingTime(0, 8, 10, 0) != 0 {
		t.Error("zero bytes should cost zero")
	}
	if RingTime(1<<20, 1, 10, 0) != 0 {
		t.Error("single rank should cost zero")
	}
	t2 := RingTime(100<<20, 2, 10, 0)
	t8 := RingTime(100<<20, 8, 10, 0)
	// Moved volume per rank grows from 1x (n=2) toward 2x (n→inf).
	if t8 <= t2 {
		t.Error("larger rings should move more data per rank")
	}
	if t8 > 2*t2 {
		t.Error("ring time should stay within 2x of the 2-rank case")
	}
	// Latency term grows linearly in steps.
	lat := RingTime(0, 8, 10, 1e-4)
	if lat != 0 {
		t.Error("zero bytes means no allreduce at all in this model")
	}
	withLat := RingTime(1, 8, 10, 1e-4)
	if math.Abs(withLat-14*1e-4) > 1e-6 {
		t.Errorf("latency term = %g, want ~14e-4", withLat)
	}
}
