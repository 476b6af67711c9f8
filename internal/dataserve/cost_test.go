package dataserve

import (
	"fmt"
	"testing"

	"scipp/internal/codec"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// The DRR tests drive nextRequest/shedLocked directly on a service with no
// worker goroutines: the serve order is then a pure function of the
// pending queues and deficits, so the tests pin the exact interleaving
// instead of a statistical bound.

// inertFormat satisfies the registration check; these tests never decode.
type inertFormat struct{}

func (inertFormat) Name() string { return "inert" }
func (inertFormat) Open([]byte) (codec.ChunkDecoder, error) {
	return nil, fmt.Errorf("inert format never decodes")
}

// idleSamples is the length of an idle tenant's dataset: the tests learn
// sizes for sample indices up to 7.
const idleSamples = 8

// idleTenant registers an inert dataset under its own name and attaches a
// tenant to it.
func idleTenant(t *testing.T, s *Service, cfg TenantConfig) *Tenant {
	t.Helper()
	if cfg.Dataset == "" {
		cfg.Dataset = cfg.Name + "-set"
	}
	if _, ok := s.datasets[cfg.Dataset]; !ok {
		err := s.Register(DatasetConfig{
			Name:   cfg.Dataset,
			Data:   inertDataset(idleSamples),
			Format: inertFormat{},
		})
		if err != nil {
			t.Fatalf("Register %s: %v", cfg.Dataset, err)
		}
	}
	tn, err := s.Attach(cfg)
	if err != nil {
		t.Fatalf("Attach %s: %v", cfg.Name, err)
	}
	return tn
}

func inertDataset(n int) *pipeline.MemDataset {
	ds := &pipeline.MemDataset{}
	for i := 0; i < n; i++ {
		ds.Blobs = append(ds.Blobs, []byte{0})
		ds.Labels = append(ds.Labels, tensor.FromF32([]float32{0}, 1))
	}
	return ds
}

// pend queues requests for the given sample indices directly, as enqueue
// would, all with the current dispatch count as their enqueue stamp. Each
// request carries a bare iterator so the serve order is attributable.
func pend(s *Service, t *Tenant, idx ...int) {
	it := &Iterator{t: t}
	for i, ix := range idx {
		t.pushLocked(request{it: it, seq: i, index: ix, enq: s.ob.dispatched.Value()})
	}
}

// learnSize stands in for a decode having learned sample i's payload size.
func learnSize(t *Tenant, i int, n int64) {
	rec := &t.sd.learned[i]
	rec.payload = n
	rec.known.Store(true)
}

// drainOrder runs nextRequest until the queues are empty, returning the
// tenant name of each serve in order.
func drainOrder(t *testing.T, s *Service, want int) []string {
	t.Helper()
	var order []string
	for {
		r, shed, ok := s.nextRequest()
		if len(shed) != 0 {
			t.Fatalf("unexpected shed of %d requests", len(shed))
		}
		if !ok {
			break
		}
		order = append(order, r.it.t.name)
	}
	if len(order) != want {
		t.Fatalf("DRR pick served %d requests, want %d", len(order), want)
	}
	return order
}

// TestUnitCostRoundRobinLegacy pins the unit-cost pick: every serve
// charges one deficit unit, so a's 400-byte samples and b's 1-byte ones
// alternate exactly as equal ones would.
func TestUnitCostRoundRobinLegacy(t *testing.T) {
	s := newService(Config{})
	a := idleTenant(t, s, TenantConfig{Name: "a"})
	b := idleTenant(t, s, TenantConfig{Name: "b"})
	for i := 0; i < idleSamples; i++ {
		learnSize(a, i, 400)
		learnSize(b, i, 1)
	}
	pend(s, a, 0, 1, 2, 3, 4, 5)
	pend(s, b, 0, 1, 2, 3, 4, 5)

	got := drainOrder(t, s, 12)
	// The cursor starts on a with zero leftover deficit, so the first
	// replenished visit lands on b: quantum-2 alternation from there.
	want := []string{"b", "b", "a", "a", "b", "b", "a", "a", "b", "b", "a", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serve %d went to %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}

func TestShedBytesAccounting(t *testing.T) {
	s := newService(Config{})
	tn := idleTenant(t, s, TenantConfig{Name: "late", DeadlineLag: 1})
	learnSize(tn, 0, 250)
	learnSize(tn, 1, 150)
	// Three requests enqueued at dispatch count 0; sample 2 has never been
	// decoded, so its shed is byte-invisible.
	pend(s, tn, 0, 1, 2)
	s.mu.Lock()
	s.ob.dispatched.Add(10) // every pending request is now 10 dispatches stale
	shed := s.shedLocked()
	s.mu.Unlock()
	if len(shed) != 3 {
		t.Fatalf("shed %d requests, want 3", len(shed))
	}
	st := s.Stats()
	if st.Shed != 3 {
		t.Errorf("shed count %d, want 3", st.Shed)
	}
	if want := int64(250 + 150); st.ShedBytes != want {
		t.Errorf("shed bytes %d, want %d", st.ShedBytes, want)
	}
	if st := tn.Stats(); st.Shed != 3 {
		t.Errorf("tenant shed %d, want 3", st.Shed)
	}
}

func TestPendQueueReusesBackingArray(t *testing.T) {
	s := newService(Config{})
	tn := idleTenant(t, s, TenantConfig{Name: "steady"})
	pend(s, tn, 0, 1, 2, 3)
	backing := &tn.pend[:1][0]
	drainOrder(t, s, 4)
	if len(tn.pend) != 0 || tn.pendHead != 0 || cap(tn.pend) < 4 {
		t.Fatalf("drained queue: len %d head %d cap %d, want an empty queue keeping its array", len(tn.pend), tn.pendHead, cap(tn.pend))
	}
	pend(s, tn, 4, 5)
	if &tn.pend[0] != backing {
		t.Fatal("a refilled queue allocated a new backing array")
	}

	// A backlog that never drains slides down instead of growing: popping
	// one and pushing one forever stays within the array it has.
	c := cap(tn.pend)
	for i := 0; i < 10*c; i++ {
		s.mu.Lock()
		tn.popLocked()
		tn.pushLocked(request{index: i})
		s.mu.Unlock()
	}
	if cap(tn.pend) != c {
		t.Fatalf("steady pop/push grew the queue from cap %d to %d", c, cap(tn.pend))
	}
}
