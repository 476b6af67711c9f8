package pipeline

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"scipp/internal/fault"
	"scipp/internal/obs"
	"scipp/internal/trace"
)

// SupervisorConfig tunes the pipeline's supervision layer: panic recovery
// and stall detection over every stage worker of the DAG. The zero value
// enables panic recovery with a default restart budget and disables the
// stall watchdog (no deadline to judge stalls against).
type SupervisorConfig struct {
	// MaxRestarts is the per-stage budget of worker restarts in one epoch —
	// a restart is a worker revived after a recovered panic, or a wedged
	// worker written off by the watchdog, which re-admits every sample of
	// the run that worker held. Exceeding the budget aborts the epoch with
	// a typed error (*SupervisorError for panics, *StallError for stalls)
	// rather than looping or hanging. <= 0 selects the default of 8.
	MaxRestarts int
	// StallDeadline is the per-sample progress deadline in seconds: a
	// sample held by one stage longer than this with no completion is
	// flagged as stalled. A stage holds a sample from the moment one of its
	// workers receives the sample's run until the worker emits it. 0
	// disables the watchdog. The deadline is judged on the loader's clock,
	// so virtual-clock runs detect stalls in virtual time; the clock must
	// implement trace.Alarm for the watchdog to run.
	StallDeadline float64
	// StallRestart selects the watchdog's response to a stalled sample:
	// true abandons the wedged attempt (its eventual output is suppressed
	// and its pooled buffers recycled) and re-admits the sample at the head
	// stage, consuming a restart; false aborts the epoch immediately with a
	// *StallError naming the culprit stage and sample.
	StallRestart bool
}

func (c SupervisorConfig) maxRestarts() int {
	if c.MaxRestarts <= 0 {
		return 8
	}
	return c.MaxRestarts
}

// WorkerPanicError reports a panic recovered inside a stage worker, carrying
// the stage and the dataset index of the sample the worker held. It is
// marked transient: the supervisor restarted the worker in place, so the
// sample deserves a fresh attempt under the resilience retry budget — with
// the zero Resilience policy it fails the epoch as a *SampleError instead.
type WorkerPanicError struct {
	// Stage names the stage whose worker panicked.
	Stage string
	// Index is the dataset index of the sample in flight, or -1 when the
	// panic hit pipeline machinery outside any sample.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

// Error implements error.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("pipeline: %s stage worker panicked on sample %d: %v", e.Stage, e.Index, e.Value)
}

// Unwrap marks the error transient so the resilience policy may retry the
// sample on the restarted worker.
func (e *WorkerPanicError) Unwrap() error { return fault.Transient }

// SupervisorError reports a stage that exhausted its restart budget: the
// supervisor stops reviving its workers and fails the epoch loudly instead
// of crash-looping.
type SupervisorError struct {
	// Stage names the stage over budget.
	Stage string
	// Restarts is the number of restarts consumed.
	Restarts int
	// Cause is the failure that broke the budget.
	Cause error
}

// Error implements error.
func (e *SupervisorError) Error() string {
	return fmt.Sprintf("pipeline: %s stage exceeded its restart budget (%d restarts): %v", e.Stage, e.Restarts, e.Cause)
}

// Unwrap exposes the budget-breaking failure to errors.Is/As.
func (e *SupervisorError) Unwrap() error { return e.Cause }

// StallError reports a stage that stopped making progress: a sample sat in
// it past the watchdog deadline and the configuration (or the exhausted
// restart budget) forbids routing around it.
type StallError struct {
	// Stage names the stalled stage.
	Stage string
	// Index is the dataset index of the wedged sample.
	Index int
	// Seconds is how long the sample had been in flight when flagged.
	Seconds float64
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("pipeline: %s stage stalled on sample %d (no progress for %.3fs)", e.Stage, e.Index, e.Seconds)
}

// flightKey identifies one attempt of one scheduled sample: seq is the
// schedule slot, gen the supervision generation (bumped each time the
// watchdog abandons a wedged attempt and re-admits the sample).
type flightKey struct{ seq, gen int }

// flight is one sample attempt currently held by a stage: received in a
// run and not yet emitted downstream (or routed as a failure).
type flight struct {
	stage string
	index int
	since float64
	// holder identifies the run that carries the attempt, and with it the
	// one worker holding every member: a wedged worker is written off once,
	// whatever the length of its run.
	holder int
}

// queueProbe exposes one inter-stage queue's occupancy to the watchdog so a
// stall report can snapshot the DAG's queue state into obs gauges.
type queueProbe struct {
	name   string
	length func() int
}

// StageSupervisor is the pipeline's supervision layer. Every goroutine the
// pipeline launches goes through Go (the workerguard analyzer enforces
// this), which fences it with panic recovery; every stage Process call runs
// between begin/end so the supervisor knows which samples are in flight,
// where, and for how long. A watchdog goroutine turns overdue flights into
// restarts or typed aborts; recovered worker panics consume the same
// per-stage restart budget. The supervisor never hangs the epoch: every
// failure path ends in a clean typed error through Iterator.Next.
type StageSupervisor struct {
	cfg   SupervisorConfig
	clock trace.Clock
	reg   *obs.Registry // stall queue-state gauges; nil disables

	// fatalFn aborts the epoch with a terminal error (set by the iterator).
	fatalFn func(error)
	// readmit re-enters an abandoned sample at the head stage.
	readmit func(seq, index, attempt, gen int) bool
	// onPanic/onStall feed Iterator.Stats and the obs counters.
	onPanic func()
	onStall func()

	// passive is set when no stall watchdog can run (no deadline): nothing
	// ever abandons an attempt, so the per-sample flight bookkeeping would
	// be pure hot-path overhead and begin/end short-circuit instead. Panic
	// recovery is unaffected — it lives in the workers' deferred recovers.
	passive bool
	// since is the clock reading when the supervisor was made, before any
	// sample of its epoch was admitted: the watchdog's first tick counts
	// from it.
	since float64

	// users counts the goroutines Go and launch started that are still
	// running, plus the holds taken with hold; idle, when set, runs each
	// time the count drops to zero (the epoch state's hand-back).
	users atomic.Int32
	idle  func()

	mu       sync.Mutex
	holders  int // runs admitted so far; the next run's holder id
	inflight map[flightKey]flight
	valid    map[int]int // seq -> minimum still-valid generation
	restarts map[string]int
	workers  map[string]func() // stage -> one fresh worker body
	probes   []queueProbe
}

// newSupervisor returns a supervisor for an epoch of the DAG; reset readies
// it for each later one.
func newSupervisor(cfg SupervisorConfig, clock trace.Clock, reg *obs.Registry) *StageSupervisor {
	s := &StageSupervisor{
		cfg:      cfg,
		reg:      reg,
		passive:  cfg.StallDeadline <= 0,
		fatalFn:  func(error) {},
		readmit:  func(int, int, int, int) bool { return false },
		onPanic:  func() {},
		onStall:  func() {},
		inflight: make(map[flightKey]flight),
		valid:    make(map[int]int),
		restarts: make(map[string]int),
		workers:  make(map[string]func()),
	}
	s.reset(clock)
	return s
}

// reset starts a new epoch's books on clock: no flights, generations or
// restarts, and the watchdog's first tick counted from now. The previous
// epoch's goroutines must all have exited. Registered workers and queue
// probes stay.
func (s *StageSupervisor) reset(clock trace.Clock) {
	s.clock = clock
	s.holders = 0
	clear(s.inflight)
	clear(s.valid)
	clear(s.restarts)
	if !s.passive {
		s.since = clock.Now()
	}
}

// hold counts one user of the supervisor's epoch besides its goroutines
// (the iterator, until Next ends the epoch); drop ends it.
func (s *StageSupervisor) hold() { s.users.Add(1) }

// drop ends a hold, or a goroutine's run, and calls idle if it was the
// last user.
func (s *StageSupervisor) drop() {
	if s.users.Add(-1) == 0 && s.idle != nil {
		s.idle()
	}
}

// registerWorker records how to spawn one fresh worker of a stage, so the
// watchdog can restart a stage whose worker it wrote off as wedged — without
// a replacement, a stage whose entire pool stalls would starve even after
// its samples were re-admitted.
func (s *StageSupervisor) registerWorker(stage string, body func()) {
	s.mu.Lock()
	s.workers[stage] = body
	s.mu.Unlock()
}

// probe registers one inter-stage queue for stall-time state snapshots.
func (s *StageSupervisor) probe(name string, length func() int) {
	s.mu.Lock()
	s.probes = append(s.probes, queueProbe{name: name, length: length})
	s.mu.Unlock()
}

// Go launches fn as a supervised pipeline goroutine (see fence).
func (s *StageSupervisor) Go(name string, fn func()) { s.launch(s.fence(name, fn)) }

// fence wraps fn for launch. A panic escaping fn is machinery failure (not
// a stage transform crash, which superviseProcess absorbs earlier): it is
// recovered and converted into a clean epoch abort with a typed
// *WorkerPanicError, so a bug in the pipeline itself can never wedge a
// training run waiting on a dead goroutine. The goroutine's exit is a drop.
func (s *StageSupervisor) fence(name string, fn func()) func() {
	return func() {
		defer s.drop()
		defer func() {
			if r := recover(); r != nil {
				s.fatalFn(&WorkerPanicError{Stage: name, Index: -1, Value: r, Stack: string(debug.Stack())})
			}
		}()
		fn()
	}
}

// launch starts a fenced body as a goroutine counted among the users. A
// body built once and launched every epoch costs no allocation.
func (s *StageSupervisor) launch(fenced func()) {
	s.users.Add(1)
	go fenced()
}

// admitRun registers every member of a run a stage worker just received as
// in flight, all under one holder id and one start time: from here until
// settleRun (or end, for a failed member) the watchdog can see and abandon
// each of them, including the run-mates still waiting behind a member the
// worker is wedged on. Members already abandoned by the watchdog (a newer
// generation of the sample is in flight) are dropped from the run
// unprocessed.
func admitRun[T any](s *StageSupervisor, stage string, r *run[item[T]]) {
	if s.passive {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.holders++
	now := s.clock.Now()
	keep := r.items[:0]
	for _, v := range r.items {
		if v.gen < s.valid[v.seq] {
			continue
		}
		s.inflight[flightKey{seq: v.seq, gen: v.gen}] = flight{stage: stage, index: v.index, since: now, holder: s.holders}
		keep = append(keep, v)
	}
	clear(r.items[len(keep):])
	r.items = keep
}

// live reports whether an admitted attempt is still the sample's valid
// generation; a worker checks it before processing each member, so a
// member the watchdog abandoned while it waited in the run is never
// processed (and never touches the dataset, cache or injector again).
func (s *StageSupervisor) live(seq, gen int) bool {
	if s.passive {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return gen >= s.valid[seq]
}

// settleRun deregisters every member of an output run about to be emitted
// and removes the members the watchdog abandoned while the worker held
// them, handing each one's output to discard (when non-nil) so its pooled
// buffers recycle. Once a member survives settleRun it can no longer be
// abandoned — it is out of the inflight table — so exactly one generation
// of each sample ever emits.
func settleRun[T any](s *StageSupervisor, r *run[item[T]], discard func(T)) {
	if s.passive {
		return
	}
	s.mu.Lock()
	k := 0
	for i, v := range r.items {
		delete(s.inflight, flightKey{seq: v.seq, gen: v.gen})
		if v.gen >= s.valid[v.seq] {
			r.items[k], r.items[i] = r.items[i], r.items[k]
			k++
		}
	}
	s.mu.Unlock()
	if discard != nil {
		for _, v := range r.items[k:] {
			discard(v.val)
		}
	}
	clear(r.items[k:])
	r.items = r.items[:k]
}

// end deregisters a failed attempt leaving a stage and reports whether its
// error may be routed: false means the watchdog abandoned the attempt while
// it ran, and a newer generation owns the sample.
func (s *StageSupervisor) end(seq, gen int) bool {
	if s.passive {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, flightKey{seq: seq, gen: gen})
	return gen >= s.valid[seq]
}

// recovered converts a stage-worker panic into a typed error and charges
// the stage's restart budget; over budget, it aborts the epoch with a
// *SupervisorError. The worker that recovered continues its loop — it is
// logically restarted in place.
func (s *StageSupervisor) recovered(stage string, index int, r any) error {
	perr := &WorkerPanicError{Stage: stage, Index: index, Value: r, Stack: string(debug.Stack())}
	s.mu.Lock()
	s.restarts[stage]++
	n := s.restarts[stage]
	s.mu.Unlock()
	s.onPanic()
	if n > s.cfg.maxRestarts() {
		s.fatalFn(&SupervisorError{Stage: stage, Restarts: n, Cause: perr})
	}
	return perr
}

// watch is the stall watchdog: it scans the inflight table every half
// deadline and routes overdue attempts per StallRestart. It exits with the
// epoch (stop closes) and requires an Alarm-capable clock; without one
// (or with no deadline) the caller never starts it. Each tick counts from
// the reading taken before the previous scan (the first from s.since), not
// from when the next alarm is armed: a virtual clock that jumps past a
// deadline while the watchdog is between alarms brings the next scan
// forward instead of slipping it past the jump.
func (s *StageSupervisor) watch(alarm trace.Alarm, stop <-chan struct{}) {
	tick := s.cfg.StallDeadline / 2
	next := s.since + tick
	for {
		ch, cancel := alarm.After(next)
		select {
		case <-ch:
		case <-stop:
			cancel()
			return
		}
		next = s.clock.Now() + tick
		if !s.scan(stop) {
			return
		}
	}
}

// stalledFlight is one overdue attempt found by a watchdog scan.
type stalledFlight struct {
	key flightKey
	fl  flight
	age float64
}

// scan flags every attempt in flight past the deadline. A stalled run is
// one wedged worker holding all of its members, so the unit of response is
// the holder: while restart budget lasts, each stalled holder consumes one
// restart of its stage, one replacement worker is started, and every one
// of its members is abandoned and re-admitted as a run of one at a fresh
// generation. Over budget, or without StallRestart, the epoch aborts with a
// *StallError naming the holder's lowest-seq member. It returns false once
// the epoch is over (fatal raised or abort observed).
func (s *StageSupervisor) scan(stop <-chan struct{}) bool {
	now := s.clock.Now()
	var stalled []stalledFlight
	var fatal *StallError
	s.mu.Lock()
	for k, f := range s.inflight {
		if now-f.since < s.cfg.StallDeadline || k.gen < s.valid[k.seq] {
			continue
		}
		stalled = append(stalled, stalledFlight{key: k, fl: f, age: now - f.since})
	}
	// Deterministic handling order: map iteration must not decide which
	// stall breaks the budget. Holders go in order of their lowest stalled
	// seq, each holder's members contiguous and in seq order.
	sort.Slice(stalled, func(i, j int) bool { return stalled[i].key.seq < stalled[j].key.seq })
	if len(stalled) > 1 {
		rank := make(map[int]int, len(stalled))
		for i, sf := range stalled {
			if _, ok := rank[sf.fl.holder]; !ok {
				rank[sf.fl.holder] = i
			}
		}
		sort.SliceStable(stalled, func(i, j int) bool { return rank[stalled[i].fl.holder] < rank[stalled[j].fl.holder] })
	}
	abandoned := 0 // stalled[:abandoned] are the members of abandoned holders
	for abandoned < len(stalled) {
		first := stalled[abandoned].fl
		if !s.cfg.StallRestart || s.restarts[first.stage] >= s.cfg.maxRestarts() {
			fatal = &StallError{Stage: first.stage, Index: first.index, Seconds: stalled[abandoned].age}
			break
		}
		s.restarts[first.stage]++
		for ; abandoned < len(stalled) && stalled[abandoned].fl.holder == first.holder; abandoned++ {
			sf := stalled[abandoned]
			s.valid[sf.key.seq] = sf.key.gen + 1
		}
	}
	s.mu.Unlock()

	if len(stalled) > 0 {
		s.snapshotQueues()
	}
	for i, sf := range stalled[:abandoned] {
		if i == 0 || stalled[i-1].fl.holder != sf.fl.holder {
			s.onStall()
			// Restart the stage: the wedged worker is written off, so a
			// fresh one takes its slot — otherwise a stage whose whole pool
			// stalled could never consume its re-admitted samples.
			s.mu.Lock()
			body := s.workers[sf.fl.stage]
			s.mu.Unlock()
			if body != nil {
				s.Go(sf.fl.stage, body)
			}
		}
		if !s.readmit(sf.key.seq, sf.fl.index, 0, sf.key.gen+1) {
			return false // epoch aborted while re-admitting
		}
	}
	if fatal != nil {
		s.fatalFn(fatal)
		return false
	}
	select {
	case <-stop:
		return false
	default:
	}
	return true
}

// snapshotQueues records every registered queue's occupancy and the inflight
// population into obs gauges (pipeline.stall.queue.<name> and
// pipeline.stall.inflight), so a stall report carries the DAG's congestion
// state at detection time. The queues (read, decode, augment, completion)
// carry runs and report runs, not samples; inflight counts samples.
func (s *StageSupervisor) snapshotQueues() {
	if s.reg == nil {
		return
	}
	s.mu.Lock()
	probes := append([]queueProbe(nil), s.probes...)
	inflight := len(s.inflight)
	s.mu.Unlock()
	for _, p := range probes {
		s.reg.Gauge("pipeline.stall.queue." + p.name).Set(float64(p.length()))
	}
	s.reg.Gauge("pipeline.stall.inflight").Set(float64(inflight))
}

// superviseProcess runs one admitted stage attempt under the supervisor:
// the abandonment check before the Process call, panic recovery inside it,
// and deregistration of a failed attempt after it (a success stays in
// flight until its run is settled). ok reports whether the attempt is still
// valid — false means it was abandoned (before or during processing) and
// the caller must discard out without emitting or routing err.
func superviseProcess[In, Out any](sup *StageSupervisor, st Stage[In, Out], name string, v item[In]) (out Out, err error, ok bool) {
	if !sup.live(v.seq, v.gen) {
		return out, nil, false
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = sup.recovered(name, v.index, r)
			}
		}()
		out, err = st.Process(v.index, v.val)
	}()
	if err != nil {
		return out, err, sup.end(v.seq, v.gen)
	}
	return out, nil, true
}
