package bench

import (
	"fmt"

	"scipp/internal/core"
	"scipp/internal/dist"
	"scipp/internal/gpusim"
	"scipp/internal/iosim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
)

// Scenario describes one training configuration on one node.
type Scenario struct {
	Platform platform.Platform
	Model    AppModel
	Enc      core.Encoding
	// Plugin places the decode stage; meaningful only for Enc == Plugin
	// (the baseline and gzip paths are host-CPU only, §IX-B).
	Plugin pipeline.Plugin
	// SamplesPerNode is the dataset assignment of §IX ("two dataset
	// assignments per node").
	SamplesPerNode int
	Staged         bool
	Batch          int
	// Epoch 0 is the cold traversal; >= 1 is the cached steady state the
	// throughput figures report.
	Epoch int
	// Strategy is the GPU decode work decomposition (Hierarchical default).
	Strategy gpusim.Strategy
}

// StageTimes are modeled per-sample stage durations in seconds. The
// pipeline prefetches, so in steady state the throughput is set by the
// slowest stage; the GPU-resident stages (decode, compute, allreduce)
// serialize on the accelerator and count as one.
type StageTimes struct {
	Read       float64 // storage -> host memory
	CPU        float64 // host parse / preprocess / decode / inflate
	H2D        float64 // host -> device transfer
	GPUDecode  float64 // on-device decode kernel (GPU plugin only)
	GPUCompute float64 // fwd + bwd + optimizer
	AllReduce  float64 // gradient synchronization (per sample)
}

// GPUTotal returns the serialized accelerator time per sample.
func (s StageTimes) GPUTotal() float64 { return s.GPUDecode + s.GPUCompute + s.AllReduce }

// Bottleneck returns the binding stage name and its per-sample duration.
func (s StageTimes) Bottleneck() (string, float64) {
	name, v := "read", s.Read
	if s.CPU > v {
		name, v = "cpu", s.CPU
	}
	if s.H2D > v {
		name, v = "h2d", s.H2D
	}
	if g := s.GPUTotal(); g > v {
		name, v = "gpu", g
	}
	return name, v
}

// StepResult is the modeled steady-state behaviour of a Scenario.
type StepResult struct {
	Stages    StageTimes
	ReadLevel iosim.Level
	Bound     string
	// PerGPU is samples/s for one GPU; Node is the full-node rate the
	// paper's figures plot.
	PerGPU float64
	Node   float64
}

// gpuEfficiency is the achieved fraction of tensor-core peak for the two
// model families (calibration constants). Summit runs the same V100 at a
// lower fraction — §IX-A: "the level of optimization for the software stack
// appears to be lower for Summit".
func gpuEfficiency(p platform.Platform) float64 {
	switch {
	case p.Name == "Summit":
		return 0.19
	case p.GPU.Name == "A100":
		// Larger tiles under-utilized by these mid-size models.
		return 0.22
	default:
		return 0.28
	}
}

// workersPerGPU is the dataloader worker count feeding one GPU (frameworks
// default to a handful of workers; more does not help under the GIL-bound
// stacks of the paper's era).
func workersPerGPU(p platform.Platform) int {
	w := p.CPU.Cores / p.GPUsPerNode
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Simulate evaluates the node pipeline model for one scenario.
func Simulate(sc Scenario) (StepResult, error) {
	if sc.Batch <= 0 {
		return StepResult{}, fmt.Errorf("bench: batch must be positive")
	}
	if sc.SamplesPerNode <= 0 {
		return StepResult{}, fmt.Errorf("bench: empty dataset")
	}
	if sc.Enc != core.Plugin && sc.Plugin == pipeline.GPUPlugin {
		return StepResult{}, fmt.Errorf("bench: %v decode is host-CPU only", sc.Enc)
	}
	p := sc.Platform
	m := sc.Model
	g := p.GPUsPerNode
	w := workersPerGPU(p)
	node := iosim.Node{P: p}

	ds := iosim.Dataset{
		Samples:     sc.SamplesPerNode,
		SampleBytes: m.BytesFor(sc.Enc),
		Staged:      sc.Staged,
	}
	level := node.ResidentLevel(ds, sc.Epoch)
	var st StageTimes
	st.Read = node.ReadTime(ds, level, g)

	// Host CPU stage.
	perCore := func(mbps float64) float64 { return mbps * 1e6 * float64(w) }
	switch {
	case sc.Enc == core.Plugin && sc.Plugin == pipeline.GPUPlugin:
		// Only staging/pinning of the encoded blob.
		st.CPU = float64(m.PluginBytes) / (2 * perCore(p.CPU.ParseMBs))
	case sc.Enc == core.Plugin: // CPU plugin decode
		st.CPU = float64(m.DecodedBytes) / perCore(p.CPU.DecodeMBs)
	default: // baseline / gzip: parse + cast + per-value preprocessing
		st.CPU = float64(m.RawF32Bytes)/perCore(p.CPU.ParseMBs) +
			float64(m.PreprocOps)/(p.CPU.TransOpsPerSec*float64(w))
		if sc.Enc == core.Gzip {
			st.CPU += float64(m.StoredBytes) / perCore(p.CPU.GunzipMBs)
		}
	}

	// Host-to-device transfer. The batch transfers together (sizing the
	// pageable-bandwidth point); all GPUs in a share group pull concurrently.
	h2dBytes := m.RawF32Bytes
	switch {
	case sc.Enc == core.Plugin && sc.Plugin == pipeline.GPUPlugin:
		h2dBytes = m.PluginBytes
	case sc.Enc == core.Plugin:
		h2dBytes = m.DecodedBytes
	}
	st.H2D = gpusim.CopyTime(p.Link, h2dBytes*sc.Batch, p.Link.ShareGroup) / float64(sc.Batch)

	// Accelerator stages.
	dev := gpusim.Device{GPU: p.GPU, Strategy: sc.Strategy}
	if sc.Enc == core.Plugin && sc.Plugin == pipeline.GPUPlugin {
		st.GPUDecode = dev.KernelTime(m.DecodeWorkload)
	}
	eff := gpuEfficiency(p)
	compute := m.ComputeFLOPs / (p.GPU.TensorTFs * 1e12 * eff)
	if p.GPU.Name == "A100" && sc.Batch >= 8 && m.App == core.DeepCAM {
		// §IX-A: "Cori-A100 suffers a small degradation with a batch size
		// of 8 ... the framework choice of the computational kernels ... is
		// the cause" — a calibration quirk carried over.
		compute *= 1.10
	}
	st.GPUCompute = compute + m.StepOverheadSec/float64(sc.Batch)

	// Gradient synchronization. Busy host CPUs delay collective launches,
	// which the paper observes as allreduce-time fluctuation that the
	// plugin removes (Fig 9).
	ring := dist.RingTime(m.GradBytes, g, p.CollectiveGBs, 30e-6)
	st.AllReduce = ring/float64(sc.Batch) + 0.10*st.CPU

	_, bound := st.Bottleneck()
	name, _ := st.Bottleneck()
	perGPU := 1 / bound
	return StepResult{
		Stages:    st,
		ReadLevel: level,
		Bound:     name,
		PerGPU:    perGPU,
		Node:      perGPU * float64(g),
	}, nil
}
