// Quickstart: train a small convnet on the synthetic ImageNet substitute
// with the paper's recipe (LARS + warmup + poly decay) at a large batch
// size, driving internal/core directly.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

func main() {
	// 1. A deterministic synthetic dataset: 8 classes of 24x24 RGB images.
	cfg := data.DefaultSynthConfig()
	cfg.TrainSize, cfg.H, cfg.W = 2048, 16, 16
	ds := data.GenerateSynth(cfg)
	fmt.Printf("dataset: %d train / %d test images, %d classes\n",
		ds.Train.Len(), ds.Test.Len(), ds.Train.Classes)

	// 2. Train micro-AlexNet at batch 512 (a quarter of the dataset) with
	//    LARS + 5-epoch warmup across 2 data-parallel workers.
	mc := models.MicroConfig{Classes: 8, InH: 16, Width: 8}
	res, err := core.Train(core.Config{
		Model:        func(seed uint64) *nn.Network { c := mc; c.Seed = seed; return models.NewMicroAlexNet(c) },
		Workers:      2,
		Batch:        512,
		Epochs:       15,
		Method:       core.LARSWarmup,
		BaseLR:       0.05,
		BaseBatch:    32,
		WarmupEpochs: 5,
		Trust:        0.05,
		Seed:         1,
	}, ds)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the run.
	for _, e := range res.History {
		fmt.Printf("epoch %2d: loss %.3f  test acc %.3f  lr %.3f\n",
			e.Epoch, e.TrainLoss, e.TestAcc, e.LR)
	}
	fmt.Printf("\nfinal top-1 accuracy: %.1f%% in %d iterations (%s wall)\n",
		100*res.TestAcc, res.Iterations, res.Wall.Round(1e8))
	fmt.Printf("gradient allreduce traffic: %.1f MB in %d messages\n",
		float64(res.Comm.Bytes)/1e6, res.Comm.Messages)
}
