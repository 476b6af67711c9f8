package fault

//lint:file-ignore deadcode the fault, pipeline and train tests reconcile what an injector did through these per-kind aggregates

// Summary aggregates an injection log.
type Summary struct {
	// Events counts faulty accesses by Kind.
	Events [numKinds]int
	// Samples counts distinct faulted samples (or blobs) by Kind.
	Samples [numKinds]int
}

// Of returns the (events, samples) pair for one kind.
func (s Summary) Of(k Kind) (events, samples int) { return s.Events[k], s.Samples[k] }

func (l *log) summary() Summary {
	var s Summary
	seen := make(map[[4]uint64]bool)
	for _, inj := range l.snapshot() {
		s.Events[inj.Kind]++
		id := [4]uint64{uint64(inj.Sample) + 1, inj.Key, uint64(inj.Rank) + 1, uint64(inj.Kind)}
		if !seen[id] {
			seen[id] = true
			s.Samples[inj.Kind]++
		}
	}
	return s
}

// Summary aggregates the injection events so far.
func (in *Injector) Summary() Summary { return in.log.summary() }

// Summary aggregates the injection events so far.
func (in *StageInjector) Summary() Summary { return in.log.summary() }

// Summary aggregates the injection events so far.
func (ci *CacheInjector) Summary() Summary { return ci.log.summary() }

// Summary aggregates the injection events so far.
func (ri *RankInjector) Summary() Summary { return ri.log.summary() }

// Summary aggregates the injection events so far.
func (ti *TierInjector) Summary() Summary { return ti.log.summary() }

// Summary aggregates the injection events so far.
func (fi *FormatInjector) Summary() Summary { return fi.log.summary() }

// Dead reports whether the injected tier is currently dead.
func (ti *TierInjector) Dead() bool {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	return ti.dead
}
