// Servefleet walks the serving-tier story end to end: how wide a batching
// window turns request latency into hardware efficiency (the inference-side
// twin of the paper's large-batch argument), how the closed form prices the
// scheduler counter-for-counter, how many replicas a P100 fleet needs for a
// target rate and p99, and what a bounded queue does to a burst — overload
// as admission control, not an outage.
//
//	go run ./examples/servefleet
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/serve"
)

func main() {
	svc := serve.ServiceModel{Base: 100, PerImage: 25}

	// 1. The batch-window tradeoff at a fixed offered rate: widening
	// MaxDelay grows the steady batch, amortizing the per-batch cost —
	// throughput per replica climbs while p99 pays the wait.
	fmt.Println("batch window vs latency at 10k req/s (gap 100µs), S(b) = 100 + 25b µs:")
	for _, d := range []serve.Ticks{0, 200, 500, 1000, 2000} {
		cfg := serve.Config{MaxBatch: 32, MaxDelay: d, Replicas: 1, Service: svc}
		rep, err := serve.Simulate(cfg, serve.UniformTrace(4000, 100, 8))
		if err != nil {
			log.Fatal(err)
		}
		s := rep.Stats
		// D=0 means no batching: S(1)=125µs per request against a 100µs
		// gap saturates the replica, and the closed form refuses the
		// regime — the whole reason the batching window exists.
		model := "DRIFT"
		if want, err := comm.ExpectedServeStats(cfg, 4000, 100); err != nil {
			model = "n/a (saturated)"
		} else if s.Equal(want) {
			model = "exact"
		}
		fmt.Printf("  D=%5dµs: mean batch %5.2f  p50 %5dµs  p99 %5dµs  busy %4.1f%%  closed form %s\n",
			d, s.MeanBatch(), s.P50, s.P99, 100*float64(s.BusyTicks)/float64(s.Makespan), model)
	}

	// 2. Fleet sizing from the same closed form: replicas a P100 needs for
	// the micro AlexNet at growing offered rates, p99 target 2ms.
	spec := models.MicroAlexNetSpec(models.MicroConfig{Classes: 8, InH: 24, Width: 8})
	fmt.Println("\nP100 fleet sizing for micro-alexnet, window K=16 D=800µs, p99 target 2ms:")
	for _, rate := range []float64{10_000, 100_000, 1_000_000} {
		est, err := cluster.SimulateServe(cluster.TeslaP100, spec, rate, 16, 800, 2000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", est)
	}

	// 3. Overload: a burst beyond the waiting room is shed with the typed
	// rejection; a second replica drains faster and admits more.
	fmt.Println("\noverload: bursts of 64 at 100k req/s into a 32-slot queue:")
	trace := serve.BurstyTrace(4000, 64, 10, 10000, 8, 1)
	for _, r := range []int{1, 2} {
		cfg := serve.Config{MaxBatch: 8, MaxDelay: 2000, QueueCap: 32, Replicas: r, Service: svc}
		rep, err := serve.Simulate(cfg, trace)
		if err != nil {
			log.Fatal(err)
		}
		s := rep.Stats
		fmt.Printf("  R=%d: accepted %4d  rejected %4d (ErrOverloaded)  queue hwm %2d  p99 %dµs\n",
			r, s.Accepted, s.Rejected, s.QueueHWM, s.P99)
	}
	fmt.Println("\nevery number above is exact virtual-clock arithmetic: rerunning this binary reproduces it bit-for-bit.")
}
