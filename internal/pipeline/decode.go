package pipeline

import (
	"scipp/internal/codec"
	"scipp/internal/gpusim"
	"scipp/internal/tensor"
	"scipp/internal/trace"
)

// decodedSample is a decoded sample tensor with its label: the payload of
// the augment and batch stages.
type decodedSample struct {
	data  *tensor.Tensor
	label *tensor.Tensor
}

// DecodeStage is the decode-plugin stage of the DAG — the paper's §VI
// decode placement choice. The CPU placement decodes chunks on a thread
// pool (cpuDecodeWorkers-wide, intra-sample); the GPU placement submits the
// sample's chunk workload to the simulated device. Open runs outside the
// decode span, exactly as the monolithic loader had it.
//
// The stage decodes into tensors drawn from the loader's SlabPool and hands
// them downstream inside the decodedSample (ownership travels with the
// sample until Batch.Release recycles it); decoder scratch goes back to the
// format through codec.Recycle as soon as the decode returns.
type DecodeStage struct {
	format   codec.Format
	plugin   Plugin
	device   *gpusim.Device
	pool     *SlabPool
	clock    trace.Clock
	timeline *trace.Timeline
	tag      string // timeline tag, "decode-"+plugin, precomputed
	ob       iterObs
}

// cpuDecodeWorkers is the CPU plugin's intra-sample chunk parallelism.
// Chunk decode is deterministic, so the width never changes output bits.
const cpuDecodeWorkers = 4

// Name implements Stage.
func (s *DecodeStage) Name() string { return "decode." + s.plugin.String() }

// Process implements Stage[rawSample, decodedSample].
//
//scipp:hotpath
func (s *DecodeStage) Process(index int, in rawSample) (decodedSample, error) {
	cd, err := s.format.Open(in.blob)
	if err != nil {
		return decodedSample{}, err
	}
	dst := s.pool.GetTensor(cd.OutputDType(), cd.OutputShape())
	sp := s.ob.decode.Start()
	var t0 float64
	if s.timeline != nil {
		t0 = s.clock.Now()
	}
	switch s.plugin {
	case GPUPlugin:
		_, err = s.device.ExecuteInto(cd, dst)
	default:
		err = codec.DecodeParallelInto(cd, dst, cpuDecodeWorkers)
	}
	sp.End()
	codec.Recycle(cd)
	if err != nil {
		s.pool.PutTensor(dst)
		return decodedSample{}, err
	}
	if s.timeline != nil {
		s.timeline.Add("loader", s.tag, t0, s.clock.Now())
	}
	return decodedSample{data: dst, label: in.label}, nil
}
