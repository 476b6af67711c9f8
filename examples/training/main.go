// Training example: the convergence-preservation experiment end to end.
// Trains the mini CosmoFlow model twice with identical seeds and schedule —
// once on baseline FP32 samples, once on decoded FP16 plugin samples — and
// prints the two loss trajectories side by side (the paper's Figs 6-7
// methodology). Also demonstrates multi-rank data-parallel training with
// ring allreduce.
//
//	go run ./examples/training
package main

import (
	"bytes"
	"fmt"
	"log"

	"scipp"
	"scipp/internal/models"
	"scipp/internal/nn"
	"scipp/internal/train"
)

func main() {
	log.SetFlags(0)

	cosmo := scipp.DefaultCosmoConfig()
	cosmo.Dim = 16
	cfg := scipp.TrainConfig{
		Samples: 16, Batch: 4, Epochs: 10,
		Seed: 7, LR: 0.01, Warmup: 4,
	}

	fmt.Println("training mini-CosmoFlow on baseline FP32 samples...")
	base, err := scipp.TrainCosmoFlow(cosmo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training mini-CosmoFlow on decoded FP16 plugin samples (same seed & schedule)...")
	cfg.Encoded = true
	dec, err := scipp.TrainCosmoFlow(cosmo, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%8s %12s %12s\n", "epoch", "base-loss", "decoded-loss")
	for e := range base {
		fmt.Printf("%8d %12.5f %12.5f\n", e, base[e], dec[e])
	}
	fmt.Println("\nthe trajectories track closely: the lossy FP16 encoding preserves convergence (§VIII-A).")

	fmt.Println("\ndata-parallel training with ring allreduce (2 ranks)...")
	cfg.Encoded = false
	multi, err := train.ElasticCosmoFlow(cosmo, cfg, train.ElasticConfig{Ranks: 2})
	if err != nil {
		log.Fatal(err)
	}
	// Same config, same warmup, same global batch: the 2-rank run follows
	// the single-rank curve up to float rounding.
	fmt.Printf("2-rank final epoch loss: %.5f (single-rank %.5f)\n",
		multi.Losses[len(multi.Losses)-1], base[len(base)-1])

	// Train a small model directly to demonstrate checkpointing: the
	// restored weights must reproduce the trained model's loss exactly.
	fmt.Println("\ncheckpoint round trip...")
	ds, err := scipp.BuildCosmoDataset(cosmo, 8, scipp.PluginEncoding)
	if err != nil {
		log.Fatal(err)
	}
	loader, err := scipp.NewLoader(ds, scipp.LoaderConfig{
		App: scipp.CosmoFlow, Encoding: scipp.PluginEncoding, Batch: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := models.MiniCosmoFlow(cosmo.Dim)
	if err != nil {
		log.Fatal(err)
	}
	model.InitHe(7)
	opt := nn.NewAdam(0.01)
	var x, y *scipp.Tensor
	for step := 0; step < 30; step++ {
		it := loader.Epoch(step)
		b, err := it.Next()
		if err != nil {
			log.Fatal(err)
		}
		x, err = train.StackData(b.Data)
		if err != nil {
			log.Fatal(err)
		}
		y, err = train.StackLabels(b.Labels)
		if err != nil {
			log.Fatal(err)
		}
		model.ZeroGrad()
		pred := model.Forward(x)
		_, grad := nn.MSELoss(pred, y)
		model.Backward(grad)
		opt.Step(model.Params())
		it.Close()
	}
	mse, _ := nn.MSELoss(model.Forward(x), y)
	fmt.Printf("parameter MSE after 30 steps: %.4f\n", mse)

	var ckpt bytes.Buffer
	if err := nn.SaveWeights(&ckpt, model); err != nil {
		log.Fatal(err)
	}
	restored, err := models.MiniCosmoFlow(cosmo.Dim)
	if err != nil {
		log.Fatal(err)
	}
	if err := nn.LoadWeights(bytes.NewReader(ckpt.Bytes()), restored); err != nil {
		log.Fatal(err)
	}
	if got, _ := nn.MSELoss(restored.Forward(x), y); got == mse {
		fmt.Printf("checkpoint restored: %d bytes, identical MSE %.4f\n", ckpt.Len(), got)
	} else {
		fmt.Printf("checkpoint mismatch: %.4f vs %.4f\n", got, mse)
	}
}
