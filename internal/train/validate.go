package train

import (
	"fmt"

	"scipp/internal/core"
	"scipp/internal/nn"
	"scipp/internal/pipeline"
	"scipp/internal/synthetic"
)

// Curves holds paired training and validation loss trajectories. §VIII-A:
// "The same behavior is also seen in the loss function of the validation
// samples, which is omitted for brevity" — this driver reproduces the
// omitted measurement.
type Curves struct {
	// Train has one entry per optimizer step (DeepCAM) or epoch (CosmoFlow).
	Train []float64
	// Val has one entry per validation evaluation, aligned with Train.
	Val []float64
}

// evalLoss computes the mean loss of model over one pass of a held-out
// loader without updating the model.
func evalLoss(spec elasticSpec, model *nn.Sequential, loader *pipeline.Loader) (float64, error) {
	it := loader.Epoch(0)
	defer it.Close()
	var sum float64
	var steps int
	for {
		b, err := it.Next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		x, y, err := spec.batch(b, 0, len(b.Data))
		if err != nil {
			return 0, err
		}
		loss, _ := spec.loss(model, x, y)
		sum += loss
		steps++
	}
	if steps == 0 {
		return 0, fmt.Errorf("train: empty validation set")
	}
	return sum / float64(steps), nil
}

// DeepCAMWithValidation runs the Fig 6 experiment tracking both the
// training loss per step and the loss on a disjoint validation set
// (generated with sample indices after the training range), evaluated every
// evalEvery steps and after the last one.
func DeepCAMWithValidation(climCfg synthetic.ClimateConfig, cfg Config, valSamples, evalEvery int) (*Curves, error) {
	if valSamples <= 0 || evalEvery <= 0 {
		return nil, fmt.Errorf("train: need positive valSamples and evalEvery")
	}
	enc := cfg.encoding()
	ds, err := core.BuildClimateDataset(climCfg, cfg.Samples, enc)
	if err != nil {
		return nil, err
	}
	// Validation samples use indices beyond the training range, so the two
	// sets are disjoint draws from the same distribution.
	valCfg := climCfg
	valCfg.Seed = climCfg.Seed ^ 0xDEADBEEF
	valDS, err := core.BuildClimateDataset(valCfg, valSamples, enc)
	if err != nil {
		return nil, err
	}
	valLoader, err := pipeline.New(valDS, pipeline.Config{
		Format: core.FormatFor(core.DeepCAM, enc), Batch: cfg.Batch,
	})
	if err != nil {
		return nil, err
	}

	curves := &Curves{}
	spec := deepcamSpec(climCfg)
	eval := spec
	spec.afterStep = func(step int, m *nn.Sequential) error {
		if step%evalEvery != 0 && step != cfg.Steps {
			return nil
		}
		vl, err := evalLoss(eval, m, valLoader)
		if err != nil {
			return err
		}
		curves.Val = append(curves.Val, vl)
		return nil
	}
	res, err := elasticRun(ds, core.DeepCAM, cfg, ElasticConfig{Ranks: 1}, spec)
	if err != nil {
		return nil, err
	}
	curves.Train = res.Losses
	return curves, nil
}
