package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentNext hammers one iterator from many goroutines: every sample
// must be delivered exactly once across all callers. Run with -race.
func TestConcurrentNext(t *testing.T) {
	const samples = 64
	ds := testDataset(samples)
	l, err := New(ds, Config{Format: countFormat{}, Batch: 3, Prefetch: 4})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	defer it.Close()

	const callers = 8
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, err := it.Next()
				if err != nil {
					errs <- err
					return
				}
				if b == nil {
					return
				}
				mu.Lock()
				got = append(got, b.Indices...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(got) != samples {
		t.Fatalf("delivered %d samples, want %d", len(got), samples)
	}
	sort.Ints(got)
	for i, idx := range got {
		if idx != i {
			t.Fatalf("sample %d delivered %d times or skipped", i, countOf(got, i))
		}
	}
}

// TestConcurrentNextPadded is TestConcurrentNext through NextPadded, with
// every caller releasing its batch: the padded freelist and the one-lock
// releases are shared by all callers, so a struct or tensor handed out twice
// shows up as a wrong element or a race. Run with -race.
func TestConcurrentNextPadded(t *testing.T) {
	const samples = 64
	l, err := New(testDataset(samples), Config{Format: raggedFormat{}, Batch: 3, Prefetch: 4})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	defer it.Close()

	const callers = 8
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pb, err := it.NextPadded()
				if err != nil || pb == nil {
					errs <- err
					return
				}
				maxLen := pb.Data.Shape[2]
				for k, i := range pb.Indices {
					for tt := 0; tt < pb.Lengths[k]; tt++ {
						if v := pb.Data.F32s[k*2*maxLen+tt]; v != float32(i)*100+float32(tt) {
							errs <- fmt.Errorf("sample %d elem %d = %g", i, tt, v)
							return
						}
					}
				}
				mu.Lock()
				got = append(got, pb.Indices...)
				mu.Unlock()
				pb.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != samples {
		t.Fatalf("delivered %d samples, want %d", len(got), samples)
	}
	sort.Ints(got)
	for i, idx := range got {
		if idx != i {
			t.Fatalf("sample %d delivered %d times or skipped", i, countOf(got, i))
		}
	}
}

func countOf(xs []int, v int) int {
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return n
}

// TestCloseDuringNext closes the iterator while other goroutines are pulling
// batches; nobody may deadlock and the prefetch workers must all exit.
func TestCloseDuringNext(t *testing.T) {
	for round := 0; round < 20; round++ {
		ds := testDataset(40)
		l, err := New(ds, Config{Format: countFormat{}, Batch: 2, Prefetch: 3})
		if err != nil {
			t.Fatal(err)
		}
		it := l.Epoch(round)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					b, err := it.Next()
					if err != nil || b == nil {
						return
					}
				}
			}()
		}
		// Race Close against the consumers, including double-Close.
		wg.Add(2)
		go func() { defer wg.Done(); it.Close() }()
		go func() { defer wg.Done(); it.Close() }()
		wg.Wait()
	}
}

// TestDrainConcurrentWithClose checks Drain against a racing Close: Drain
// must return without hanging whether it sees the full epoch or a truncated
// one.
func TestDrainConcurrentWithClose(t *testing.T) {
	ds := testDataset(64)
	l, err := New(ds, Config{Format: countFormat{}, Batch: 4, Prefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	it := l.Epoch(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := it.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	it.Close()
	<-done
}
