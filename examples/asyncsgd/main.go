// Asyncsgd demonstrates why the paper builds on synchronous SGD: an
// asynchronous parameter server (Downpour-style, the Background section's
// alternative) applies gradients that are ~P-1 versions stale, and with
// momentum that staleness destabilizes training at learning rates a
// synchronous run handles easily.
//
//	go run ./examples/asyncsgd
package main

import (
	"fmt"
	"log"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
)

func main() {
	cfg := data.DefaultSynthConfig()
	cfg.TrainSize, cfg.H, cfg.W, cfg.Classes = 512, 8, 8, 4
	ds := data.GenerateSynth(cfg)
	mc := models.MicroConfig{Classes: 4, InH: 8, Width: 4}
	mlp := func(seed uint64) *nn.Network { c := mc; c.Seed = seed; return models.NewMicroAlexNet(c) }

	const lr, batch = 0.2, 32
	const updates = 160 // = 10 epochs of 512 examples at batch 32

	fmt.Printf("task: %d train images, %d classes; %d updates at lr=%.2f\n\n",
		ds.Train.Len(), ds.Train.Classes, updates, lr)

	// Synchronous reference: same schedule, no staleness.
	sync, err := core.Train(core.Config{
		Model: mlp, Workers: 1, Batch: batch,
		Epochs: updates * batch / cfg.TrainSize, Method: core.BaselineSGD,
		BaseLR: lr, Seed: 2,
	}, ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synchronous SGD:       acc %.3f (staleness 0)\n", sync.TestAcc)

	var reference float64
	for _, p := range []int{1, 4, 8, 16} {
		res, err := async.Train(async.Config{
			Model: mlp, Workers: p, Batch: batch, Updates: updates,
			BaseLR: lr, Momentum: 0.9, Seed: 2,
		}, ds)
		if err != nil {
			log.Fatal(err)
		}
		if p == 1 {
			// The 1-worker run is the staleness-free async reference (it
			// still differs slightly from the sync loop: with-replacement
			// sampling instead of epoch shuffling).
			reference = res.TestAcc
		}
		note := ""
		switch {
		case res.Diverged:
			note = "  DIVERGED"
		case p > 1 && res.TestAcc < reference-0.2:
			note = "  <- staleness collapse"
		}
		fmt.Printf("async, %2d workers:     acc %.3f (staleness mean %.1f, max %d)%s\n",
			p, res.TestAcc, res.MeanStaleness, res.MaxStaleness, note)
	}

	fmt.Println("\nThe paper: \"asynchronous methods using parameter server are not")
	fmt.Println("guaranteed to be stable on large-scale systems\" — hence synchronous")
	fmt.Println("SGD plus large batches (plus LARS to keep those batches trainable).")
}
