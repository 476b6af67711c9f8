package bench

import (
	"fmt"

	"scipp/internal/core"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/train"
)

// TTSResult combines statistical efficiency (epochs to a target loss, from
// *real* training) with runtime efficiency (modeled epoch time at paper
// scale) into time-to-solution — "ultimately, the performance of these
// applications is defined by the time to a desired accuracy, which
// intertwines multiple performance contributing factors" (§III).
type TTSResult struct {
	Platform   string
	TargetLoss float64
	// Epochs to reach the target under each sample class (real training on
	// the reduced-scale model; -1 if the target was not reached).
	EpochsBase, EpochsPlugin int
	// Modeled seconds per epoch at paper scale.
	EpochSecBase, EpochSecPlugin float64
	// Time to solution = epochs x epoch time.
	TTSBase, TTSPlugin float64
	// Speedup of the plugin pipeline in time-to-solution.
	Speedup float64
}

func epochsToTarget(losses []float64, target float64) int {
	for i, l := range losses {
		if l <= target {
			return i + 1
		}
	}
	return -1
}

// TimeToSolution runs the CosmoFlow convergence experiment once for both
// sample classes, takes epochs-to-target from the real loss curves, and
// multiplies by the modeled per-epoch wall time of the corresponding
// pipeline on each platform: one result per platform, in order.
func TimeToSolution(scale float64, plats []platform.Platform, target float64, cosmoCfg synthetic.CosmoConfig, trainCfg train.Config) ([]TTSResult, error) {
	base, err := train.CosmoFlow(cosmoCfg, trainCfg)
	if err != nil {
		return nil, err
	}
	trainCfg.Encoded = true
	plug, err := train.CosmoFlow(cosmoCfg, trainCfg)
	if err != nil {
		return nil, err
	}
	eb, ep := epochsToTarget(base, target), epochsToTarget(plug, target)
	if eb < 0 || ep < 0 {
		return nil, fmt.Errorf("bench: target loss %g not reached within %d epochs (base %v, plugin %v)",
			target, trainCfg.Epochs, eb, ep)
	}
	m, err := Calibrate(core.CosmoFlow, scale)
	if err != nil {
		return nil, err
	}
	out := make([]TTSResult, len(plats))
	for i, p := range plats {
		samples := CosmoSmallPerGPU * p.GPUsPerNode
		baseStep, err := Simulate(Scenario{
			Platform: p, Model: m, Enc: core.Baseline,
			SamplesPerNode: samples, Staged: true, Batch: trainCfg.Batch, Epoch: 1,
		})
		if err != nil {
			return nil, err
		}
		plugStep, err := Simulate(Scenario{
			Platform: p, Model: m, Enc: core.Plugin, Plugin: pipeline.GPUPlugin,
			SamplesPerNode: samples, Staged: true, Batch: trainCfg.Batch, Epoch: 1,
		})
		if err != nil {
			return nil, err
		}
		r := TTSResult{Platform: p.Name, TargetLoss: target, EpochsBase: eb, EpochsPlugin: ep,
			EpochSecBase: float64(samples) / baseStep.Node, EpochSecPlugin: float64(samples) / plugStep.Node}
		r.TTSBase = float64(eb) * r.EpochSecBase
		r.TTSPlugin = float64(ep) * r.EpochSecPlugin
		if r.TTSPlugin > 0 {
			r.Speedup = r.TTSBase / r.TTSPlugin
		}
		out[i] = r
	}
	return out, nil
}
