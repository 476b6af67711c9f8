package train

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"scipp/internal/nn"
)

// CheckpointMeta is the training-run position stored alongside an nn
// checkpoint: everything beyond model and optimizer state that a resumed run
// needs to continue bit-identically. Because the loader's shuffle is a pure
// function of (Seed, epoch), the sampler position is fully described by the
// epoch and step counters — there is no hidden iterator state to persist.
type CheckpointMeta struct {
	// App identifies the experiment ("deepcam" or "cosmoflow"); resuming
	// into the wrong run is a typed error, not silent divergence.
	App string
	// Epoch is the number of fully completed dataset traversals.
	Epoch int
	// Step is the number of completed optimizer steps (drives the LR
	// schedule on resume).
	Step int
	// Seed is the run's seed; a resumed run must present the same one or
	// its shuffle schedule would diverge from the checkpointed trajectory.
	Seed uint64
	// Evicted lists ranks lost before this checkpoint (elastic runs); a
	// resumed run starts with these ranks already down.
	Evicted []int
}

func (m CheckpointMeta) attrs() map[string]string {
	a := map[string]string{
		"app":   m.App,
		"epoch": strconv.Itoa(m.Epoch),
		"step":  strconv.Itoa(m.Step),
		"seed":  strconv.FormatUint(m.Seed, 10),
	}
	if len(m.Evicted) > 0 {
		parts := make([]string, len(m.Evicted))
		for i, r := range m.Evicted {
			parts[i] = strconv.Itoa(r)
		}
		a["evicted"] = strings.Join(parts, ",")
	}
	return a
}

func metaFromAttrs(extra map[string]string) (CheckpointMeta, error) {
	var m CheckpointMeta
	m.App = extra["app"]
	if m.App == "" {
		return m, fmt.Errorf("train: checkpoint carries no app attribute")
	}
	var err error
	if m.Epoch, err = strconv.Atoi(extra["epoch"]); err != nil {
		return m, fmt.Errorf("train: bad checkpoint epoch %q", extra["epoch"])
	}
	if m.Step, err = strconv.Atoi(extra["step"]); err != nil {
		return m, fmt.Errorf("train: bad checkpoint step %q", extra["step"])
	}
	if m.Seed, err = strconv.ParseUint(extra["seed"], 10, 64); err != nil {
		return m, fmt.Errorf("train: bad checkpoint seed %q", extra["seed"])
	}
	if s := extra["evicted"]; s != "" {
		for _, part := range strings.Split(s, ",") {
			r, err := strconv.Atoi(part)
			if err != nil {
				return m, fmt.Errorf("train: bad checkpoint evicted list %q", s)
			}
			m.Evicted = append(m.Evicted, r)
		}
	}
	return m, nil
}

// Checkpoint is one epoch-boundary snapshot: the serialized nn checkpoint
// bytes plus the decoded run position.
type Checkpoint struct {
	Meta CheckpointMeta
	Data []byte
}

// CheckpointLog collects a run's snapshots in epoch order. It is safe for
// concurrent use so elastic runs can checkpoint from worker goroutines.
type CheckpointLog struct {
	mu  sync.Mutex
	cps []Checkpoint
}

func (l *CheckpointLog) add(cp Checkpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cps = append(l.cps, cp)
}

// Len returns the number of snapshots taken.
func (l *CheckpointLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cps)
}

// saveCheckpoint snapshots the run at an epoch boundary when the configured
// cadence says so. epoch counts COMPLETED epochs (the first boundary is 1).
func (c Config) saveCheckpoint(app string, epoch, step int, model *nn.Sequential, opt nn.Optimizer, evicted []int) error {
	if c.CheckpointEvery <= 0 {
		return nil
	}
	if c.Checkpoints == nil {
		return fmt.Errorf("train: CheckpointEvery set without a Checkpoints log")
	}
	if epoch%c.CheckpointEvery != 0 {
		return nil
	}
	meta := CheckpointMeta{
		App:     app,
		Epoch:   epoch,
		Step:    step,
		Seed:    c.Seed,
		Evicted: append([]int(nil), evicted...),
	}
	var buf bytes.Buffer
	if err := nn.SaveCheckpoint(&buf, model, opt, meta.attrs()); err != nil {
		return err
	}
	c.Checkpoints.add(Checkpoint{Meta: meta, Data: buf.Bytes()})
	return nil
}

// resumeInto restores cfg.ResumeFrom into model and opt, returning the run
// position to continue from. With no ResumeFrom it is a no-op at (0, 0).
func (c Config) resumeInto(app string, model *nn.Sequential, opt nn.Optimizer) (CheckpointMeta, error) {
	if c.ResumeFrom == nil {
		return CheckpointMeta{App: app}, nil
	}
	extra, err := nn.LoadCheckpoint(bytes.NewReader(c.ResumeFrom.Data), model, opt)
	if err != nil {
		return CheckpointMeta{}, err
	}
	meta, err := metaFromAttrs(extra)
	if err != nil {
		return CheckpointMeta{}, err
	}
	if meta.App != app {
		return CheckpointMeta{}, fmt.Errorf("train: checkpoint is a %q run, cannot resume %q", meta.App, app)
	}
	if meta.Seed != c.Seed {
		return CheckpointMeta{}, fmt.Errorf("train: checkpoint seed %d, run seed %d: shuffle schedules would diverge", meta.Seed, c.Seed)
	}
	return meta, nil
}
