package dist

import (
	"sync"
	"testing"
)

// TestAllReduceUnevenCompletion staggers ranks so they reach each collective
// at very different times: fast ranks burn almost no CPU between collectives
// while slow ranks do a long local reduction first. The ring must stay
// correct and race-free (run with -race) under that skew.
func TestAllReduceUnevenCompletion(t *testing.T) {
	const (
		ranks  = 5
		elems  = 257 // not divisible by ranks: uneven segments too
		rounds = 25
	)
	g, err := New(Config{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]float32, ranks)
	for r := range bufs {
		bufs[r] = make([]float32, elems)
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Skew: rank r does r*20000 units of busywork before joining,
				// so completion order differs every round.
				sink := 0.0
				for i := 0; i < rank*20000; i++ {
					sink += float64(i)
				}
				_ = sink
				for i := range bufs[rank] {
					bufs[rank][i] = float32(rank + round)
				}
				g.AllReduceSum(rank, bufs[rank])
			}
		}(r)
	}
	wg.Wait()
	// After the last round every rank holds sum over r of (r + rounds-1).
	want := float32(0)
	for r := 0; r < ranks; r++ {
		want += float32(r + rounds - 1)
	}
	for r := 0; r < ranks; r++ {
		for i, v := range bufs[r] {
			if v != want {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, v, want)
			}
		}
	}
}

// TestAllReduceInterleavedWithBarrier mixes collectives with barriers under
// skewed arrival, the pattern the data-parallel trainer uses per step.
func TestAllReduceInterleavedWithBarrier(t *testing.T) {
	const ranks = 4
	g, err := New(Config{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			buf := make([]float32, 33)
			for round := 0; round < 10; round++ {
				for i := range buf {
					buf[i] = 1
				}
				if err := g.AllReduceMean(rank, buf); err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				if buf[0] != 1 {
					t.Errorf("rank %d round %d: mean of ones = %v", rank, round, buf[0])
				}
				if err := g.Barrier(rank); err != nil {
					t.Errorf("rank %d round %d barrier: %v", rank, round, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
