// Package gpusim models the accelerator for decode offload: a simulated GPU
// that *actually executes* decode kernels (on a goroutine worker pool, so
// decoded bytes are real) while charging time on a virtual clock from an
// analytic cost model parameterized by the platform's GPU (SMs, HBM
// bandwidth, FP32 throughput).
//
// The execution strategies mirror §VI: table-lookup decodes are uniform
// work ("highly parallelizable since there are no dependencies between
// threads"); differential decodes carry loop dependencies and control
// divergence, which the paper handles with hierarchical parallelism —
// "assign a warp of threads a copy or broadcast tasks and assign tasks that
// create control divergence to different warps". The cost model exposes
// both that strategy and the naive thread-per-line mapping as an ablation.
package gpusim

import (
	"fmt"
	"runtime"

	"scipp/internal/codec"
	"scipp/internal/platform"
	"scipp/internal/tensor"
)

// Strategy selects the decode-kernel work decomposition.
type Strategy int

const (
	// Hierarchical is the paper's scheme: divergent tasks are isolated on
	// their own warps, keeping uniform warps at full SIMD efficiency.
	Hierarchical Strategy = iota
	// NaiveThreadPerChunk maps chunks directly onto threads; divergent
	// chunks serialize their warps (the ablation baseline).
	NaiveThreadPerChunk
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Hierarchical:
		return "hierarchical"
	case NaiveThreadPerChunk:
		return "naive"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Model constants of the kernel-time estimator. They are deliberately
// simple: the evaluation cares about ratios between pipeline stages, not
// absolute microseconds.
const (
	// KernelLaunchSec is the fixed launch + driver overhead per kernel.
	KernelLaunchSec = 8e-6
	// hbmEfficiency derates peak HBM bandwidth for the scattered accesses
	// of decode kernels.
	hbmEfficiency = 0.65
	// computeEfficiency derates FP32 peak for integer/byte-manipulation
	// decode arithmetic.
	computeEfficiency = 0.20
	// hierDivergencePenalty is the slowdown of divergent work under the
	// hierarchical warp assignment (inner-loop tasks still cooperate).
	hierDivergencePenalty = 4.0
	// naiveDivergencePenalty is the slowdown when divergent chunks
	// serialize whole warps.
	naiveDivergencePenalty = 24.0
)

// Device is one simulated accelerator.
type Device struct {
	GPU      platform.GPU
	Strategy Strategy
	// Workers caps the real goroutine pool; 0 means GOMAXPROCS.
	Workers int
}

// New returns a Device for the given GPU with the paper's hierarchical
// strategy.
func New(gpu platform.GPU) *Device {
	return &Device{GPU: gpu, Strategy: Hierarchical}
}

// KernelTime estimates the decode-kernel duration for a workload on this
// device: the max of the memory-bound and compute-bound times plus launch
// overhead. Divergent chunks are charged a strategy-dependent penalty.
func (d *Device) KernelTime(w codec.Workload) float64 {
	memBytes := float64(w.BytesIn + w.BytesOut)
	tMem := memBytes / (d.GPU.HBMTBs * 1e12 * hbmEfficiency)

	rate := d.GPU.FP32TFs * 1e12 * computeEfficiency
	divFrac := 0.0
	if w.Chunks > 0 {
		divFrac = float64(w.Divergent) / float64(w.Chunks)
	}
	penalty := hierDivergencePenalty
	if d.Strategy == NaiveThreadPerChunk {
		penalty = naiveDivergencePenalty
	}
	ops := float64(w.Ops)
	tComp := ops*(1-divFrac)/rate + ops*divFrac*penalty/rate

	t := tMem
	if tComp > t {
		t = tComp
	}
	return KernelLaunchSec + t
}

// CopyTime estimates a host-to-device transfer over the platform link,
// with the link shared by `concurrent` GPUs in the same share group.
func CopyTime(link platform.Link, bytes int, concurrent int) float64 {
	if bytes == 0 {
		return 0
	}
	if concurrent < 1 {
		concurrent = 1
	}
	if concurrent > link.ShareGroup {
		concurrent = link.ShareGroup
	}
	bw := link.PageableGBs(bytes) * 1e9 / float64(concurrent)
	return float64(bytes) / bw
}

// Execute really decodes cd on the device's worker pool and returns the
// decoded tensor together with the simulated kernel time. The decoded bytes
// are bit-identical to a serial decode; only the clock is simulated.
func (d *Device) Execute(cd codec.ChunkDecoder) (*tensor.Tensor, float64, error) {
	out := tensor.New(cd.OutputDType(), cd.OutputShape()...)
	kt, err := d.ExecuteInto(cd, out)
	if err != nil {
		return nil, 0, err
	}
	return out, kt, nil
}

// ExecuteInto decodes cd into dst on the device's worker pool and returns
// the simulated kernel time — the hot-path variant of Execute, for callers
// that recycle sample buffers.
//
//scipp:hotpath
func (d *Device) ExecuteInto(cd codec.ChunkDecoder, dst *tensor.Tensor) (float64, error) {
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > d.GPU.SMs {
		workers = d.GPU.SMs
	}
	if err := codec.DecodeParallelInto(cd, dst, workers); err != nil {
		return 0, err
	}
	return d.KernelTime(cd.Workload()), nil
}
