package dist

import (
	"errors"
	"sync"
	"testing"

	"scipp/internal/obs"
	"scipp/internal/trace"
)

// sumWithRetry runs AllReduceSum, refilling data and retrying on ring
// rebuilds. It returns the evictions observed, or stops the goroutine's loop
// when the rank itself is evicted.
func sumWithRetry(t *testing.T, g *Group, rank int, fill func() []float32) (result []float32, observed []int, dead bool) {
	t.Helper()
	d := fill()
	for attempt := 0; attempt <= g.Size(); attempt++ {
		err := g.AllReduceSum(rank, d)
		if err == nil {
			return d, observed, false
		}
		var re *RankError
		if !errors.As(err, &re) {
			t.Errorf("rank %d: unexpected error %v", rank, err)
			return d, observed, true
		}
		if re.Self {
			return d, observed, true
		}
		observed = append(observed, re.Evicted...)
		d = fill()
	}
	t.Errorf("rank %d: retries exhausted", rank)
	return d, observed, true
}

// TestLeaveEvictsAndRebuildsRing is the core elastic scenario on a virtual
// clock with no time advancement: rank 2 of 4 announces a fail-stop crash
// at round 3; survivors observe exactly one *RankError naming it, retry the
// interrupted collective on the rebuilt 3-rank ring, and finish all rounds.
func TestLeaveEvictsAndRebuildsRing(t *testing.T) {
	const (
		ranks     = 4
		victim    = 2
		killRound = 3
		rounds    = 6
	)
	vc := &trace.VirtualClock{}
	reg := obs.NewRegistry()
	g, err := New(Config{Ranks: ranks, Clock: vc, Timeout: 10, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][]float32, ranks)
	evicts := make([][]int, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		sums[r] = make([]float32, rounds)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if rank == victim && round == killRound {
					g.Leave(rank, "crash")
					return
				}
				d, seen, dead := sumWithRetry(t, g, rank, func() []float32 {
					return []float32{float32(rank + 1), float32(round)}
				})
				evicts[rank] = append(evicts[rank], seen...)
				if dead {
					return
				}
				sums[rank][round] = d[0]
			}
		}(r)
	}
	wg.Wait()

	fullSum := float32(1 + 2 + 3 + 4)
	for r := 0; r < ranks; r++ {
		if r == victim {
			continue
		}
		for round := 0; round < rounds; round++ {
			want := fullSum
			if round >= killRound {
				want = fullSum - float32(victim+1)
			}
			if sums[r][round] != want {
				t.Errorf("rank %d round %d: sum %v, want %v", r, round, sums[r][round], want)
			}
		}
		if len(evicts[r]) != 1 || evicts[r][0] != victim {
			t.Errorf("rank %d observed evictions %v, want [%d] exactly once", r, evicts[r], victim)
		}
	}
	if got := g.Alive(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Errorf("alive = %v, want [0 1 3]", got)
	}
	if g.Generation() != 1 {
		t.Errorf("generation = %d, want 1", g.Generation())
	}
	evs := g.Evictions()
	if len(evs) != 1 || evs[0].Rank != victim || evs[0].Reason != "crash" || evs[0].Gen != 0 {
		t.Errorf("evictions = %+v", evs)
	}
	snap := reg.Snapshot()
	if snap.Counter("dist.evictions") != 1 {
		t.Errorf("dist.evictions = %d, want 1", snap.Counter("dist.evictions"))
	}
	if rs := snap.Gauge("dist.ring_size"); rs.Value != 3 || rs.Max != 4 {
		t.Errorf("dist.ring_size = %+v, want value 3 max 4", rs)
	}
}

// TestDeadlineEvictsHangingRank exercises the timeout path: a rank that
// silently hangs (no Leave) misses the rendezvous deadline on a wall clock
// and is evicted; its goroutine is released via Departed.
func TestDeadlineEvictsHangingRank(t *testing.T) {
	const (
		ranks     = 3
		victim    = 1
		hangRound = 2
		rounds    = 4
	)
	g, err := New(Config{Ranks: ranks, Clock: trace.NewWallClock(), Timeout: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	sums := make([][]float32, ranks)
	for r := 0; r < ranks; r++ {
		sums[r] = make([]float32, rounds)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if rank == victim && round == hangRound {
					<-g.Departed(rank) // silent hang until the group gives up
					return
				}
				d, _, dead := sumWithRetry(t, g, rank, func() []float32 {
					return []float32{1}
				})
				if dead {
					return
				}
				sums[rank][round] = d[0]
			}
		}(r)
	}
	wg.Wait()

	evs := g.Evictions()
	if len(evs) != 1 || evs[0].Rank != victim || evs[0].Reason != "timeout" {
		t.Fatalf("evictions = %+v, want rank %d by timeout", evs, victim)
	}
	for r := 0; r < ranks; r++ {
		if r == victim {
			continue
		}
		for round := 0; round < rounds; round++ {
			want := float32(ranks)
			if round >= hangRound {
				want = float32(ranks - 1)
			}
			if sums[r][round] != want {
				t.Errorf("rank %d round %d: sum %v, want %v", r, round, sums[r][round], want)
			}
		}
	}
	if g.Live(victim) {
		t.Error("victim still live after timeout eviction")
	}
}

// TestLengthMismatchTyped: ranks joining one allreduce with different
// buffer lengths all get a *MismatchError, nobody is evicted, and the group
// remains usable for a following well-formed collective.
func TestLengthMismatchTyped(t *testing.T) {
	g, err := New(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = g.AllReduceSum(rank, make([]float32, 3+rank))
		}(r)
	}
	wg.Wait()
	for r, e := range errs {
		var me *MismatchError
		if !errors.As(e, &me) {
			t.Fatalf("rank %d: got %v, want *MismatchError", r, e)
		}
		if me.Got == me.Want {
			t.Errorf("rank %d: mismatch error with equal lengths: %+v", r, me)
		}
	}
	if len(g.Alive()) != 2 {
		t.Errorf("mismatch must not evict: alive = %v", g.Alive())
	}
	// The group must recover for a well-formed collective.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			d := []float32{1, 1}
			if err := g.AllReduceSum(rank, d); err != nil {
				t.Errorf("rank %d post-mismatch: %v", rank, err)
			} else if d[0] != 2 {
				t.Errorf("rank %d post-mismatch sum = %v", rank, d[0])
			}
		}(r)
	}
	wg.Wait()
}

// TestOpMismatchTyped: one rank at a barrier while the other runs an
// allreduce is a typed mismatch, not a hang.
func TestOpMismatchTyped(t *testing.T) {
	g, err := New(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = g.Barrier(0)
	}()
	go func() {
		defer wg.Done()
		errs[1] = g.AllReduceSum(1, []float32{1})
	}()
	wg.Wait()
	for r, e := range errs {
		var me *MismatchError
		if !errors.As(e, &me) {
			t.Fatalf("rank %d: got %v, want *MismatchError", r, e)
		}
	}
}

// TestEvictedRankSelfError: an evicted rank calling back into the group
// gets a self-flagged *RankError naming it, never a hang.
func TestEvictedRankSelfError(t *testing.T) {
	g, err := New(Config{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	g.Leave(1, "crash")
	err = g.AllReduceSum(1, []float32{1})
	var re *RankError
	if !errors.As(err, &re) || !re.Self {
		t.Fatalf("got %v, want self *RankError", err)
	}
	if len(re.Evicted) != 1 || re.Evicted[0] != 1 || re.Reason != "crash" {
		t.Errorf("self error = %+v", re)
	}
	if err := g.Barrier(1); !errors.As(err, &re) || !re.Self {
		t.Errorf("barrier on evicted rank: %v, want self *RankError", err)
	}
}

// TestDownRanksAtConstruction: a resumed run excludes ranks lost before its
// checkpoint; collectives and means run over the survivors only.
func TestDownRanksAtConstruction(t *testing.T) {
	g, err := New(Config{Ranks: 4, Down: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Alive(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("alive = %v, want [0 2]", got)
	}
	var wg sync.WaitGroup
	means := make([]float32, 4)
	for _, r := range []int{0, 2} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			d := []float32{float32(rank)}
			if err := g.AllReduceMean(rank, d); err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			means[rank] = d[0]
		}(r)
	}
	wg.Wait()
	if means[0] != 1 || means[2] != 1 {
		t.Errorf("means = %v, want 1 on live ranks (0+2)/2", means)
	}
	if _, err := New(Config{Ranks: 2, Down: []int{0, 1}}); err == nil {
		t.Error("all ranks down accepted")
	}
	if _, err := New(Config{Ranks: 2, Down: []int{5}}); err == nil {
		t.Error("out-of-range down rank accepted")
	}
}

// TestLinksDrainedOnEviction locks satellite (b): buffered slices left on a
// generation's links by an aborted collective are drained at eviction, and
// the rebuilt ring starts on fresh channels that cannot deliver them.
func TestLinksDrainedOnEviction(t *testing.T) {
	g, err := New(Config{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	stale := []float32{9, 9, 9}
	g.mu.Lock()
	old := g.links
	old.chans[1] <- stale // simulate a message stranded by an aborted step
	g.evictLocked([]int{2}, "crash")
	fresh := g.links
	g.mu.Unlock()
	if len(old.chans[1]) != 0 {
		t.Error("retired links not drained on eviction")
	}
	if fresh == old {
		t.Error("eviction did not replace the link set")
	}
	// Survivors' next collective must not see the stale payload.
	var wg sync.WaitGroup
	for _, r := range []int{0, 1} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			d := []float32{1, 1, 1}
			if err := g.AllReduceSum(rank, d); err != nil {
				// First call observes the eviction notification; retry.
				var re *RankError
				if !errors.As(err, &re) || re.Self {
					t.Errorf("rank %d: %v", rank, err)
					return
				}
				d = []float32{1, 1, 1}
				if err := g.AllReduceSum(rank, d); err != nil {
					t.Errorf("rank %d retry: %v", rank, err)
					return
				}
			}
			for i, v := range d {
				if v != 2 {
					t.Errorf("rank %d elem %d: %v (stale message leaked?)", rank, i, v)
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestDrainDeferredWhileExchangeActive: links retired while an exchange is
// still running are drained only when the last exchange finishes, so the
// drain cannot steal messages a mid-flight exchange still needs.
func TestDrainDeferredWhileExchangeActive(t *testing.T) {
	g, err := New(Config{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	old := g.links
	old.active = 1 // one exchange notionally in flight
	old.chans[0] <- []float32{5}
	g.evictLocked([]int{2}, "crash")
	g.mu.Unlock()
	if len(old.chans[0]) != 1 {
		t.Fatal("drain ran while an exchange held the links")
	}
	g.finish(&ticket{ls: old})
	if len(old.chans[0]) != 0 {
		t.Error("last finish off a retired link set must drain it")
	}
}

// TestStragglerEWMA drives arrivals on a virtual clock and checks the EWMA
// update, the slow-rank threshold, and the obs gauges.
func TestStragglerEWMA(t *testing.T) {
	vc := &trace.VirtualClock{}
	reg := obs.NewRegistry()
	g, err := New(Config{Ranks: 3, Clock: vc, SlowFactor: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	for r := 0; r < 3; r++ {
		g.lastDone[r] = 0
	}
	g.mu.Unlock()

	vc.Advance(1) // fast ranks arrive after 1s of compute
	g.mu.Lock()
	g.noteArrivalLocked(0)
	g.noteArrivalLocked(1)
	g.mu.Unlock()
	vc.Advance(9) // the slow rank takes 10s total
	g.mu.Lock()
	g.noteArrivalLocked(2)
	g.updateStragglersLocked()
	g.mu.Unlock()

	if e, ok := g.EWMA(0); !ok || e != 1 {
		t.Errorf("ewma[0] = %v,%v want 1", e, ok)
	}
	if e, ok := g.EWMA(2); !ok || e != 10 {
		t.Errorf("ewma[2] = %v,%v want 10", e, ok)
	}
	if s := g.Stragglers(); len(s) != 1 || s[0] != 2 {
		t.Fatalf("stragglers = %v, want [2]", s)
	}

	// Second round: EWMA smooths with alpha 0.4.
	g.mu.Lock()
	for r := 0; r < 3; r++ {
		g.lastDone[r] = vc.Now()
	}
	g.mu.Unlock()
	vc.Advance(2)
	g.mu.Lock()
	g.noteArrivalLocked(2)
	g.mu.Unlock()
	if e, _ := g.EWMA(2); e != 0.4*2+0.6*10 {
		t.Errorf("smoothed ewma[2] = %v, want 6.8", e)
	}

	snap := reg.Snapshot()
	if v := snap.Gauge("dist.step_ewma.rank2").Value; v != 6.8 {
		t.Errorf("gauge dist.step_ewma.rank2 = %v, want 6.8", v)
	}
	if v := snap.Gauge("dist.stragglers").Value; v != 1 {
		t.Errorf("gauge dist.stragglers = %v, want 1", v)
	}
}

// TestStragglerIntegrationWallClock flags a rank that really is slower,
// end to end through the collectives on a wall clock.
func TestStragglerIntegrationWallClock(t *testing.T) {
	clk := trace.NewWallClock()
	sleeper := clk.(trace.Sleeper)
	g, err := New(Config{Ranks: 3, Clock: clk, SlowFactor: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				if rank == 2 {
					sleeper.Sleep(0.02) // simulated slow compute
				}
				if err := g.AllReduceSum(rank, []float32{1}); err != nil {
					t.Errorf("rank %d: %v", rank, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	found := false
	for _, s := range g.Stragglers() {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("rank 2 not flagged: stragglers = %v", g.Stragglers())
	}
}

// TestConcurrentBarrierCollectiveEviction is the satellite (c) -race test:
// barriers and collectives interleave across ranks while one rank crashes
// mid-run; every survivor realigns and finishes.
func TestConcurrentBarrierCollectiveEviction(t *testing.T) {
	const (
		ranks     = 5
		victim    = 3
		killRound = 4
		rounds    = 10
	)
	g, err := New(Config{Ranks: ranks, Clock: &trace.VirtualClock{}, Timeout: 100})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if rank == victim && round == killRound {
					g.Leave(rank, "crash")
					return
				}
				if _, _, dead := sumWithRetry(t, g, rank, func() []float32 {
					return make([]float32, 17)
				}); dead {
					return
				}
				for attempt := 0; attempt <= ranks; attempt++ {
					err := g.Barrier(rank)
					if err == nil {
						break
					}
					var re *RankError
					if !errors.As(err, &re) || re.Self {
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if len(g.Alive()) != ranks-1 {
		t.Errorf("alive = %v", g.Alive())
	}
	evs := g.Evictions()
	if len(evs) != 1 || evs[0].Rank != victim {
		t.Errorf("evictions = %+v", evs)
	}
}

// EWMA returns rank's current step-time EWMA and whether one has been
// recorded yet.
func (g *Group) EWMA(rank int) (float64, bool) {
	g.checkRank(rank)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ewma[rank], g.ewmaSet[rank]
}
