// Largebatch reproduces the paper's headline phenomenon (Figure 1 /
// Figure 4) end to end: as the batch size grows under a fixed epoch budget,
// the standard recipe (linear LR scaling + warmup, Goyal et al. 2017)
// collapses, while LARS + warmup holds accuracy near the small-batch
// baseline.
//
//	go run ./examples/largebatch
//
// Expect ~3-4 minutes of real training on a couple of cores.
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
	cfg := data.DefaultSynthConfig()
	cfg.TrainSize, cfg.H, cfg.W = 2048, 16, 16
	ds := data.GenerateSynth(cfg)
	mc := models.MicroConfig{Classes: 8, InH: 16, Width: 8}
	factory := func(seed uint64) *nn.Network { c := mc; c.Seed = seed; return models.NewMicroAlexNet(c) }

	const epochs = 20 // the fixed budget every run shares

	run := func(method core.Method, batch int, warmup float64, trust float64) float64 {
		res, err := core.Train(core.Config{
			Model: factory, Workers: 2,
			Batch: batch, Epochs: epochs,
			Method: method, BaseLR: 0.05, BaseBatch: 32,
			WarmupEpochs: warmup, Trust: trust, Seed: 1,
		}, ds)
		if err != nil {
			log.Fatal(err)
		}
		return res.TestAcc
	}

	baseline := run(core.BaselineSGD, 32, 0, 0)
	fmt.Printf("baseline  B=32    acc %.3f  (every run below gets the same %d epochs)\n\n", baseline, epochs)

	fmt.Printf("%-8s %-14s %-14s\n", "batch", "linear+warmup", "LARS+warmup")
	for _, b := range []int{256, 512, 1024, 2048} {
		warmup := 5.0
		trust := 0.05
		if b >= 2048 {
			warmup, trust = 12, 0.03
		}
		lin := run(core.LinearScalingWarmup, b, warmup, 0)
		lars := run(core.LARSWarmup, b, warmup, trust)
		marker := ""
		if lars-lin > 0.2 {
			marker = "  <- LARS rescues the large batch"
		}
		fmt.Printf("%-8d %-14.3f %-14.3f%s\n", b, lin, lars, marker)
	}
	fmt.Println("\nPaper analog: Facebook's recipe drops to 72.4%/66.0% at 32K/64K while")
	fmt.Println("LARS holds 75.4%/73.2% (Table 10); the same shape appears above.")
}
