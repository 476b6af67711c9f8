// Package dist implements ring allreduce across in-process ranks — the role
// NCCL/Horovod play in the paper's distributed training ("NVIDIA's NCCL for
// distributed implementation"; "TensorFlow leverages the NCCL library ...
// through the Horovod library").
//
// The algorithm is the bandwidth-optimal ring: N-1 scatter-reduce steps
// followed by N-1 allgather steps, moving 2*(N-1)/N of the buffer per rank.
// Ranks are goroutines; links are channels. A cost model mirrors the data
// movement for the step-time breakdowns.
//
// The communicator is elastic, in the style of Horovod elastic / NCCL
// collective timeouts: every collective opens with a rendezvous carrying a
// deadline on the group's trace.Clock. A rank that has not arrived when the
// deadline fires is declared failed and evicted; the survivors rebuild a
// smaller ring deterministically (live ranks in id order) under a bumped
// generation number and each gets a typed *RankError so the caller can re-run
// the interrupted step. Ranks may also announce their own departure with
// Leave (fail-stop). The fault model is fail-stop at collective boundaries: a
// rank fails instead of arriving at a rendezvous, never in the middle of a
// data exchange it already joined.
package dist

import (
	"fmt"
	"sort"
	"sync"

	"scipp/internal/obs"
	"scipp/internal/trace"
)

// Config configures an elastic communicator.
type Config struct {
	// Ranks is the initial group size; required, > 0.
	Ranks int
	// Clock supplies collective timestamps (straggler EWMAs, eviction
	// times). If it also implements trace.Alarm and Timeout > 0, rendezvous
	// deadlines are enforced on it. Nil disables both.
	Clock trace.Clock
	// Timeout is the rendezvous deadline in clock seconds: once the first
	// rank arrives at a collective, every other live rank must arrive within
	// Timeout or be evicted. Zero disables deadlines.
	Timeout float64
	// SlowFactor flags rank r a straggler when its step-time EWMA exceeds
	// SlowFactor times the fastest live rank's EWMA. Zero disables straggler
	// detection.
	SlowFactor float64
	// Obs receives dist.* gauges and counters; nil disables metrics.
	Obs *obs.Registry
	// Down lists ranks that start already evicted — a resumed run excludes
	// the ranks lost before its checkpoint.
	Down []int
}

// ewmaAlpha is the smoothing factor of the per-rank step-time EWMA that
// SlowFactor judges.
const ewmaAlpha = 0.4

// Eviction records one rank's removal from the group.
type Eviction struct {
	Rank   int     // evicted rank id
	Gen    int     // generation that ended with this eviction
	Reason string  // "timeout", "crash", ...
	Time   float64 // clock time of the eviction
}

// RankError reports that the ring was rebuilt — or, when Self is true, that
// the calling rank itself has been evicted. Surviving callers should re-run
// the interrupted step against the new, smaller ring.
type RankError struct {
	Evicted []int  // ranks removed since the caller last participated
	Gen     int    // generation now in effect
	Reason  string // reason of the (latest) eviction
	Self    bool   // the calling rank is among the evicted
}

// Error implements error.
func (e *RankError) Error() string {
	if e.Self {
		return fmt.Sprintf("dist: rank %v evicted (%s), now generation %d", e.Evicted, e.Reason, e.Gen)
	}
	return fmt.Sprintf("dist: ranks %v evicted (%s), ring rebuilt at generation %d", e.Evicted, e.Reason, e.Gen)
}

// MismatchError reports ranks joining one collective with incompatible
// arguments — different operations or different buffer lengths. It is a
// programming error in the caller, not a rank failure: nobody is evicted.
type MismatchError struct {
	Op     string // operation of the offending call
	WantOp string // operation the rendezvous was opened with
	Rank   int    // offending rank
	Got    int    // its buffer length
	Want   int    // buffer length the rendezvous was opened with
}

// Error implements error.
func (e *MismatchError) Error() string {
	if e.Op != e.WantOp {
		return fmt.Sprintf("dist: rank %d joined %s while group runs %s", e.Rank, e.Op, e.WantOp)
	}
	return fmt.Sprintf("dist: rank %d passed %d elements to %s, group agreed on %d", e.Rank, e.Got, e.Op, e.Want)
}

const (
	opAllReduce = "allreduce"
	opBarrier   = "barrier"
)

// linkSet is one generation's ring channels. links[r] carries messages to
// rank r from its ring predecessor. A retired set (its generation ended) is
// drained as soon as the last in-flight exchange finishes, so buffered
// slices from an aborted collective are never delivered to — and never leak
// into — the rebuilt ring.
type linkSet struct {
	chans   []chan []float32
	active  int // exchanges still running on these channels
	retired bool
}

func newLinkSet(n int) *linkSet {
	ls := &linkSet{chans: make([]chan []float32, n)}
	for i := range ls.chans {
		ls.chans[i] = make(chan []float32, 1)
	}
	return ls
}

func (ls *linkSet) drain() {
	for _, ch := range ls.chans {
		for {
			select {
			case <-ch:
			default:
			}
			if len(ch) == 0 {
				break
			}
		}
	}
}

// rendezvous is the entry barrier of one collective: it validates that every
// live rank joined the same operation with the same buffer length, arms the
// deadline, and snapshots the ring for the data exchange.
type rendezvous struct {
	op      string
	length  int
	expect  int // live ranks when opened
	arrived map[int]bool
	done    bool
	err     *MismatchError
	seen    int // ranks that observed err (mismatch teardown)
	tk      *ticket
	settled bool
	settle  chan struct{} // closed when done, poisoned, or aborted
}

// ticket is the per-collective exchange context snapshotted at rendezvous
// completion, so every participant sees the same ring even if an eviction
// lands before it wakes.
type ticket struct {
	gen   int
	ring  []int
	ls    *linkSet
	abort chan struct{}
}

// Group is an elastic communicator. All live ranks must call collective
// operations the same number of times in the same order; on a *RankError
// they re-run the interrupted call.
type Group struct {
	cfg   Config
	n     int
	clock trace.Clock
	alarm trace.Alarm

	mu        sync.Mutex
	cond      *sync.Cond
	gen       int
	alive     []bool
	ring      []int // live ranks in ascending id order
	links     *linkSet
	abort     chan struct{}
	departed  []chan struct{}
	notify    []bool
	pending   []*RankError
	rv        *rendezvous
	evictions []Eviction

	lastDone   []float64 // clock time each rank last completed a rendezvous
	ewma       []float64
	ewmaSet    []bool
	stragglers []int

	gRing      *obs.Gauge
	gStrag     *obs.Gauge
	cEvictions *obs.Counter
}

// New creates an elastic communicator from cfg.
func New(cfg Config) (*Group, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("dist: invalid group size %d", cfg.Ranks)
	}
	n := cfg.Ranks
	g := &Group{
		cfg:      cfg,
		n:        n,
		clock:    cfg.Clock,
		alive:    make([]bool, n),
		links:    newLinkSet(n),
		abort:    make(chan struct{}),
		departed: make([]chan struct{}, n),
		notify:   make([]bool, n),
		pending:  make([]*RankError, n),
		lastDone: make([]float64, n),
		ewma:     make([]float64, n),
		ewmaSet:  make([]bool, n),
	}
	g.cond = sync.NewCond(&g.mu)
	if cfg.Clock != nil && cfg.Timeout > 0 {
		g.alarm, _ = cfg.Clock.(trace.Alarm)
	}
	for r := range g.alive {
		g.alive[r] = true
		g.departed[r] = make(chan struct{})
		g.lastDone[r] = -1
	}
	for _, r := range cfg.Down {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("dist: down rank %d outside group of %d", r, n)
		}
		if g.alive[r] {
			g.alive[r] = false
			close(g.departed[r])
		}
	}
	g.rebuildRingLocked()
	if len(g.ring) == 0 {
		return nil, fmt.Errorf("dist: all %d ranks down at construction", n)
	}
	g.gRing = cfg.Obs.Gauge("dist.ring_size")
	g.gStrag = cfg.Obs.Gauge("dist.stragglers")
	g.cEvictions = cfg.Obs.Counter("dist.evictions")
	g.gRing.Set(float64(len(g.ring)))
	g.gStrag.Set(0)
	return g, nil
}

// Size returns the initial number of ranks.
func (g *Group) Size() int { return g.n }

// Generation returns the current ring generation; it increments on every
// eviction.
func (g *Group) Generation() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gen
}

// Alive returns the live ranks in ascending order.
func (g *Group) Alive() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.ring...)
}

// Live reports whether rank is still in the group.
func (g *Group) Live(rank int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return rank >= 0 && rank < g.n && g.alive[rank]
}

// Evictions returns every eviction so far, in order.
func (g *Group) Evictions() []Eviction {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Eviction(nil), g.evictions...)
}

// Departed returns a channel closed when rank is evicted. A hanging rank's
// goroutine can park on it and exit once the group gives up on it.
func (g *Group) Departed(rank int) <-chan struct{} {
	g.checkRank(rank)
	return g.departed[rank]
}

// Stragglers returns the live ranks currently flagged slow (step-time EWMA
// above SlowFactor times the fastest live rank), ascending.
func (g *Group) Stragglers() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.stragglers...)
}

// Leave announces rank's fail-stop departure: the rank is evicted
// immediately, survivors get a *RankError at (or in) their current
// collective and retry on the rebuilt ring.
func (g *Group) Leave(rank int, reason string) {
	g.checkRank(rank)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.alive[rank] {
		return
	}
	g.evictLocked([]int{rank}, reason)
}

// AllReduceSum sums data elementwise across live ranks, in place; every
// live rank ends with the identical total. data must have the same length
// on every rank (*MismatchError otherwise). A *RankError means the ring was
// rebuilt mid-collective and the call must be retried with the original
// data. It panics if rank is outside the group (programmer invariant: rank
// assignment is the launcher's wiring).
func (g *Group) AllReduceSum(rank int, data []float32) error {
	g.checkRank(rank)
	tk, err := g.start(rank, opAllReduce, len(data))
	if err != nil {
		return err
	}
	if tk == nil {
		return nil
	}
	defer g.finish(tk)
	return g.exchange(tk, rank, data)
}

// AllReduceMean is AllReduceSum followed by division by the number of live
// ranks that participated.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (g *Group) AllReduceMean(rank int, data []float32) error {
	g.checkRank(rank)
	tk, err := g.start(rank, opAllReduce, len(data))
	if err != nil {
		return err
	}
	m := 1
	if tk != nil {
		defer g.finish(tk)
		if err := g.exchange(tk, rank, data); err != nil {
			return err
		}
		m = len(tk.ring)
	}
	inv := 1 / float32(m)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// Barrier blocks until every live rank reaches it, subject to the same
// deadline and eviction semantics as the collectives.
//
//lint:ignore deadcode queued for deletion with its tests (ROADMAP item 9)
func (g *Group) Barrier(rank int) error {
	g.checkRank(rank)
	_, err := g.start(rank, opBarrier, 0)
	return err
}

// checkRank panics if rank is outside the group (programmer invariant: rank
// ids come from the launcher's own wiring, never from data).
func (g *Group) checkRank(rank int) {
	if rank < 0 || rank >= g.n {
		panic(fmt.Sprintf("dist: rank %d out of group of %d", rank, g.n))
	}
}

func (g *Group) now() float64 {
	if g.clock == nil {
		return 0
	}
	return g.clock.Now()
}

// start runs the rendezvous for one collective call. It returns a non-nil
// ticket when a ring data exchange must follow, nil when the collective is
// complete as-is (barrier, single live rank, empty buffer).
func (g *Group) start(rank int, op string, length int) (*ticket, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	if !g.alive[rank] {
		return nil, g.selfErrLocked(rank)
	}
	if g.notify[rank] {
		return nil, g.takePendingLocked(rank)
	}

	rv := g.rv
	if rv == nil {
		rv = &rendezvous{
			op:      op,
			length:  length,
			expect:  len(g.ring),
			arrived: make(map[int]bool, len(g.ring)),
			settle:  make(chan struct{}),
		}
		g.rv = rv
		g.armDeadlineLocked(rv)
	} else if rv.err != nil {
		return nil, g.observeMismatchLocked(rv)
	} else if rv.op != op || rv.length != length {
		rv.err = &MismatchError{Op: op, WantOp: rv.op, Rank: rank, Got: length, Want: rv.length}
		rv.settleLocked()
		g.cond.Broadcast()
		return nil, g.observeMismatchLocked(rv)
	}

	rv.arrived[rank] = true
	g.noteArrivalLocked(rank)
	if len(rv.arrived) == rv.expect {
		return g.completeLocked(rv), nil
	}

	gen := g.gen
	for !rv.done && rv.err == nil && g.gen == gen {
		g.cond.Wait()
	}
	switch {
	case rv.err != nil:
		return nil, g.observeMismatchLocked(rv)
	case rv.done:
		return rv.tk, nil
	default: // aborted: an eviction rebuilt the ring while we waited
		if !g.alive[rank] {
			return nil, g.selfErrLocked(rank)
		}
		return nil, g.takePendingLocked(rank)
	}
}

// completeLocked settles a fully-arrived rendezvous: clears the deadline,
// stamps step completion for the EWMAs, snapshots the exchange ticket, and
// releases the waiters.
func (g *Group) completeLocked(rv *rendezvous) *ticket {
	rv.done = true
	rv.settleLocked()
	now := g.now()
	for _, r := range g.ring {
		g.lastDone[r] = now
	}
	if rv.op == opAllReduce && rv.length > 0 && rv.expect > 1 {
		rv.tk = &ticket{
			gen:   g.gen,
			ring:  append([]int(nil), g.ring...),
			ls:    g.links,
			abort: g.abort,
		}
		g.links.active += rv.expect
	}
	g.updateStragglersLocked()
	g.rv = nil
	g.cond.Broadcast()
	return rv.tk
}

// observeMismatchLocked hands one rank the rendezvous's sticky mismatch
// error; the rendezvous is cleared once every expected rank has seen it, so
// late arrivals do not pair with a fresh collective.
func (g *Group) observeMismatchLocked(rv *rendezvous) error {
	rv.seen++
	if rv.seen >= rv.expect && g.rv == rv {
		g.rv = nil
	}
	return rv.err
}

func (g *Group) selfErrLocked(rank int) error {
	reason := "evicted"
	for _, e := range g.evictions {
		if e.Rank == rank {
			reason = e.Reason
		}
	}
	return &RankError{Evicted: []int{rank}, Gen: g.gen, Reason: reason, Self: true}
}

func (g *Group) takePendingLocked(rank int) error {
	g.notify[rank] = false
	err := g.pending[rank]
	g.pending[rank] = nil
	if err == nil {
		err = &RankError{Gen: g.gen, Reason: "eviction"}
	}
	return err
}

// armDeadlineLocked starts the watchdog enforcing the rendezvous deadline:
// if the alarm fires before every live rank arrives, the missing ranks are
// evicted.
func (g *Group) armDeadlineLocked(rv *rendezvous) {
	if g.alarm == nil || rv.expect <= 1 {
		return
	}
	fired, cancel := g.alarm.After(g.clock.Now() + g.cfg.Timeout)
	go g.watchdog(rv, fired, cancel)
}

func (g *Group) watchdog(rv *rendezvous, fired <-chan struct{}, cancel func()) {
	select {
	case <-fired:
	case <-rv.settle:
		cancel()
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if rv.done || rv.err != nil || g.rv != rv {
		return
	}
	var late []int
	for _, r := range g.ring {
		if !rv.arrived[r] {
			late = append(late, r)
		}
	}
	if len(late) == 0 || len(late) == len(g.ring) {
		return
	}
	g.evictLocked(late, "timeout")
}

// evictLocked removes victims from the group: generation bumps, ring
// rebuilds over the survivors in id order, the current rendezvous aborts,
// every survivor is armed to observe exactly one *RankError, and the old
// generation's links are retired for draining.
func (g *Group) evictLocked(victims []int, reason string) {
	now := g.now()
	evicted := victims[:0:0]
	for _, r := range victims {
		if r < 0 || r >= g.n || !g.alive[r] {
			continue
		}
		g.alive[r] = false
		close(g.departed[r])
		g.evictions = append(g.evictions, Eviction{Rank: r, Gen: g.gen, Reason: reason, Time: now})
		evicted = append(evicted, r)
	}
	if len(evicted) == 0 {
		return
	}
	g.cEvictions.Add(int64(len(evicted)))
	g.gen++
	g.rebuildRingLocked()
	for _, r := range g.ring {
		if g.pending[r] != nil {
			g.pending[r].Evicted = append(g.pending[r].Evicted, evicted...)
			sort.Ints(g.pending[r].Evicted)
			g.pending[r].Gen = g.gen
			g.pending[r].Reason = reason
		} else {
			g.pending[r] = &RankError{Evicted: append([]int(nil), evicted...), Gen: g.gen, Reason: reason}
		}
		g.notify[r] = true
	}
	if g.rv != nil {
		g.rv.settleLocked()
		g.rv = nil
	}
	close(g.abort)
	g.abort = make(chan struct{})
	g.links.retired = true
	if g.links.active == 0 {
		g.links.drain()
	}
	g.links = newLinkSet(g.n)
	g.gRing.Set(float64(len(g.ring)))
	g.updateStragglersLocked()
	g.cond.Broadcast()
}

func (g *Group) rebuildRingLocked() {
	g.ring = g.ring[:0]
	for r := 0; r < g.n; r++ {
		if g.alive[r] {
			g.ring = append(g.ring, r)
		}
	}
}

// finish releases one exchange's hold on its generation's links; the last
// exchange off a retired generation drains the buffered slices.
func (g *Group) finish(tk *ticket) {
	g.mu.Lock()
	defer g.mu.Unlock()
	tk.ls.active--
	if tk.ls.retired && tk.ls.active == 0 {
		tk.ls.drain()
	}
}

// noteArrivalLocked feeds the straggler EWMAs: a rank's step time is the
// clock span from its previous rendezvous completion to this arrival, so
// time spent waiting for slower peers inside the rendezvous is not charged.
func (g *Group) noteArrivalLocked(rank int) {
	if g.clock == nil {
		return
	}
	now := g.clock.Now()
	if g.lastDone[rank] < 0 {
		return
	}
	dt := now - g.lastDone[rank]
	if g.ewmaSet[rank] {
		g.ewma[rank] = ewmaAlpha*dt + (1-ewmaAlpha)*g.ewma[rank]
	} else {
		g.ewma[rank] = dt
		g.ewmaSet[rank] = true
	}
	g.cfg.Obs.Gauge(fmt.Sprintf("dist.step_ewma.rank%d", rank)).Set(g.ewma[rank])
}

func (g *Group) updateStragglersLocked() {
	g.stragglers = g.stragglers[:0]
	if g.cfg.SlowFactor <= 0 {
		return
	}
	minE := -1.0
	for _, r := range g.ring {
		if g.ewmaSet[r] && (minE < 0 || g.ewma[r] < minE) {
			minE = g.ewma[r]
		}
	}
	if minE <= 0 {
		g.gStrag.Set(0)
		return
	}
	for _, r := range g.ring {
		if g.ewmaSet[r] && g.ewma[r] > g.cfg.SlowFactor*minE {
			g.stragglers = append(g.stragglers, r)
		}
	}
	g.gStrag.Set(float64(len(g.stragglers)))
}

func (rv *rendezvous) settleLocked() {
	if !rv.settled {
		rv.settled = true
		close(rv.settle)
	}
}

// exchange runs the ring allreduce over the live ranks snapshotted in tk.
// Segment boundaries cover the live ring, neighbors are ring-order, and all
// channel traffic stays on tk's generation links.
func (g *Group) exchange(tk *ticket, rank int, data []float32) error {
	m := len(tk.ring)
	idx := 0
	for i, r := range tk.ring {
		if r == rank {
			idx = i
		}
	}
	bounds := make([]int, m+1)
	for s := 0; s <= m; s++ {
		bounds[s] = s * len(data) / m
	}
	seg := func(s int) []float32 { return data[bounds[s]:bounds[s+1]] }
	next := tk.ring[(idx+1)%m]

	// Scatter-reduce: after step k, position p holds the partial sum of
	// segment (p-k) over k+1 contributions.
	for step := 0; step < m-1; step++ {
		sendSeg := (idx - step + m*m) % m
		out := append([]float32(nil), seg(sendSeg)...)
		if err := g.sendMsg(tk, next, out); err != nil {
			return err
		}
		in, err := g.recvMsg(tk, rank)
		if err != nil {
			return err
		}
		recvSeg := (idx - step - 1 + m*m) % m
		dst := seg(recvSeg)
		for i, v := range in {
			dst[i] += v
		}
	}
	// Allgather: circulate the completed segments.
	for step := 0; step < m-1; step++ {
		sendSeg := (idx - step + 1 + m*m) % m
		out := append([]float32(nil), seg(sendSeg)...)
		if err := g.sendMsg(tk, next, out); err != nil {
			return err
		}
		in, err := g.recvMsg(tk, rank)
		if err != nil {
			return err
		}
		recvSeg := (idx - step + m*m) % m
		copy(seg(recvSeg), in)
	}
	return nil
}

// sendMsg delivers one ring message. An abort mid-exchange means an
// eviction fired elsewhere; under fail-stop semantics every participant of
// this exchange is still running, so the exchange is completable and the
// send keeps going — with a full Timeout as a deadlock backstop. The
// *RankError for the eviction is delivered at the next rendezvous.
func (g *Group) sendMsg(tk *ticket, to int, out []float32) error {
	select {
	case tk.ls.chans[to] <- out:
		return nil
	case <-tk.abort:
	}
	fired, cancel := g.backstop()
	defer cancel()
	select {
	case tk.ls.chans[to] <- out:
		return nil
	case <-fired:
		return g.stuckErr()
	}
}

// recvMsg receives one ring message, with the same abort semantics as
// sendMsg.
func (g *Group) recvMsg(tk *ticket, rank int) ([]float32, error) {
	select {
	case in := <-tk.ls.chans[rank]:
		return in, nil
	case <-tk.abort:
	}
	fired, cancel := g.backstop()
	defer cancel()
	select {
	case in := <-tk.ls.chans[rank]:
		return in, nil
	case <-fired:
		return nil, g.stuckErr()
	}
}

// backstop returns a deadline channel for a post-abort exchange: it fires
// only if a peer violated fail-stop and died mid-exchange, which would
// otherwise hang the survivors forever.
func (g *Group) backstop() (<-chan struct{}, func()) {
	if g.alarm == nil {
		return nil, func() {} // nil channel: never fires
	}
	return g.alarm.After(g.clock.Now() + g.cfg.Timeout)
}

func (g *Group) stuckErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &RankError{Gen: g.gen, Reason: "exchange stalled past abort backstop"}
}

// RingTime models the wall time of a ring allreduce of `bytes` gradient
// bytes across n ranks over links of linkGBs, with perStepLatency seconds of
// software/launch latency per ring step. This is the model-synchronization
// stage of Figs 9/12.
func RingTime(bytes int, n int, linkGBs float64, perStepLatency float64) float64 {
	if n <= 1 || bytes == 0 {
		return 0
	}
	moved := 2 * float64(n-1) / float64(n) * float64(bytes)
	return moved/(linkGBs*1e9) + float64(2*(n-1))*perStepLatency
}
