package main

import (
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The serve-f16 workload: cmd/serve's defaults (micro-AlexNet at 24x24,
// width 8; 10000 req/s Poisson traffic; MaxBatch 8, MaxDelay 2000 µs, an
// unbounded queue) on a two-replica f16 pool.
const (
	serveRequests = 2000 // per Pool.Run
	serveImages   = 256  // distinct labelled images the requests cycle through
	serveSamples  = 32   // requests re-checked against single-image forwards
)

var serveConfig = serve.Config{
	MaxBatch: 8, MaxDelay: 2000, QueueCap: 0, Replicas: 2,
	Service: serve.ServiceModel{Base: 100, PerImage: 25},
}

type serveWorkload struct{}

// serveState is what set-up hands the measured calls: the labelled images,
// the arrival trace, the pool and the network the checkpoint came from.
type serveState struct {
	test   *data.Dataset
	trace  serve.Trace
	pool   *serve.Pool
	source *nn.Network
}

func newServeState(seed uint64, writes, reads *[]time.Duration) (*serveState, error) {
	synth := data.GenerateSynth(data.SynthConfig{
		Classes: 8, TrainSize: 8, TestSize: serveImages, C: 3, H: 24, W: 24,
		Noise: 0.3, MaxShift: 2, Seed: derive(seed, saltSynth),
	})
	mcfg := models.MicroConfig{Classes: 8, InH: 24, InW: 24, Width: 8, Seed: derive(seed, saltTrain)}
	source := models.NewMicroAlexNet(mcfg)
	c, err := roundTrip(source, 0, writes, reads)
	if err != nil {
		return nil, err
	}
	// The pool's replicas start from other weights, so serving the source
	// model's predictions shows the checkpoint was applied.
	pcfg := mcfg
	pcfg.Seed++
	pool, err := serve.PoolFromCheckpoint(serveConfig, func() *nn.Network { return models.NewMicroAlexNet(pcfg) }, c)
	if err != nil {
		return nil, err
	}
	pool.SetPrecision(tensor.F16)
	source.SetPrecision(tensor.F16)
	trace := serve.PoissonTrace(serveRequests, serve.TicksPerSecond/10000, serveImages, derive(seed, saltTrace))
	return &serveState{test: synth.Test, trace: trace, pool: pool, source: source}, nil
}

// serveTrace accumulates the traced replay's per-call timings.
type serveTrace struct {
	step, gather   []time.Duration
	forward        time.Duration
	schedule, wall time.Duration
	batches        int
	batchMean      float64
	prof           phases
}

func (serveWorkload) run(rc runCfg) (*outcome, error) {
	var st *serveState
	var writes, reads []time.Duration
	setupS, err := timeSetup(func() error {
		var err error
		st, err = newServeState(rc.seed, &writes, &reads)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := int64(len(st.trace.Requests))
	replicas := make([]*nn.Network, st.pool.Size())
	for i := range replicas {
		replicas[i] = st.pool.Replica(i)
	}
	layers := newTracer(replicas...)

	o := newOutcome(rc)
	var ref []int
	var untraced rates
	var tracedRates []float64
	var tr serveTrace
	// gate counts every request of a failed run, and every prediction that
	// differs from the first run's, as failed.
	gate := func(what string, preds []int, err error) {
		o.attempted += n
		switch {
		case err != nil:
			o.fail(n, "%s: %v", what, err)
		case ref == nil:
			ref = preds
			for r, p := range preds {
				if p < 0 {
					o.fail(1, "%s: request %d not served", what, r)
				}
			}
		default:
			for r, p := range preds {
				if p != ref[r] {
					o.fail(1, "%s: request %d predicted %d, first run %d", what, r, p, ref[r])
				}
			}
		}
	}
	needSamples := func() bool { return rc.traced && len(tr.step) < minTailSamples }
	repeat(rc.window, needSamples, func() {
		var rep *serve.Report
		var preds []int
		var err error
		measure := func() {
			u := readUsage()
			rep, preds, err = st.pool.Run(st.trace, st.test.Images)
			if err == nil {
				untraced.add(rc.log, "Pool.Run", float64(rep.Stats.Completed), u)
			}
		}
		if rc.traced && len(untraced.work) == 0 {
			o.measureAllocs(measure, n)
		} else {
			measure()
		}
		if err == nil && rep.Stats.Rejected > 0 {
			err = fmt.Errorf("%d requests rejected", rep.Stats.Rejected)
		}
		gate("Pool.Run", preds, err)
		if !rc.traced {
			return
		}
		var work time.Duration
		preds, work, err = replay(st, layers, &tr)
		if err == nil {
			tracedRates = append(tracedRates, float64(n)/work.Seconds())
		}
		gate("traced replay", preds, err)
	})
	if ref == nil {
		return nil, fmt.Errorf("no run passed the gate")
	}
	if !rc.traced {
		// The replay is the traced run's measured work; untraced runs
		// still check it once, outside the measurement.
		preds, _, err := replay(st, nil, nil)
		gate("replay", preds, err)
	}
	o.attempted += serveSamples
	if err := checkSingles(st, ref, derive(rc.seed, saltSample)); err != nil {
		o.fail(serveSamples, "single-image forwards: %v", err)
	}

	if !rc.traced {
		o.vals["img_per_s"] = median(untraced.work)
		o.vals["img_per_cpu_s"] = median(untraced.cpu)
		o.vals["setup_s"] = setupS
		return o, nil
	}
	stepWall := sum(tr.step)
	if err := addStepTail(o.vals, tr.step); err != nil {
		return nil, err
	}
	correct := 0
	for r, p := range ref {
		if p == st.test.Labels[st.trace.Requests[r].Image] {
			correct++
		}
	}
	o.vals["core.top1"] = float64(correct) / float64(len(ref))
	o.vals["data.gather_ms_p50"] = p50(ms(tr.gather))
	addLayerShares(o.vals, stepWall, 1, layers)
	tr.prof.addShares(o.vals, stepWall)
	o.vals["serve.forward_share"] = float64(tr.forward) / float64(stepWall)
	o.vals["serve.schedule_share"] = float64(tr.schedule) / float64(tr.wall)
	o.vals["serve.batches"] = float64(tr.batches)
	o.vals["serve.batch_mean"] = tr.batchMean
	o.vals["checkpoint.write_ms"] = p50(ms(writes))
	o.vals["checkpoint.read_ms"] = p50(ms(reads))
	o.vals["trace.overhead_frac"] = 1 - median(tracedRates)/median(untraced.work)
	// Training-only layers: serving takes no optimizer step and runs no
	// collective.
	for _, name := range []string{"core.final_loss", "core.fixed_share", "dist.grad_share", "dist.bcast_share",
		"dist.eval_share", "dist.comm_mb_per_step", "dist.comm_msgs_per_step", "dist.hidden_bytes_frac", "opt.step_share"} {
		o.vals[name] = 0
	}
	return o, nil
}

// replay schedules the trace with serve.Simulate and runs every batch it
// dispatched through the assigned replica's Forward, as Pool.Run does, but
// call by call. With a tracer it times the scheduler, each batch's gather
// and forward, every layer and the kernel phases; with nil it only
// computes the predictions.
func replay(st *serveState, layers *tracer, tr *serveTrace) ([]int, time.Duration, error) {
	u := readUsage()
	rep, err := serve.Simulate(serveConfig, st.trace)
	if err != nil {
		return nil, 0, err
	}
	var base phases
	if layers != nil {
		tr.schedule += time.Since(u.wall)
		layers.wrap()
		defer layers.unwrap()
		kernel.SetProfiling(true)
		defer kernel.SetProfiling(false)
		base, _ = kernel.ProfileSnapshot()
	}
	preds := make([]int, len(st.trace.Requests))
	for i := range preds {
		preds[i] = -1
	}
	idx := make([]int, 0, serveConfig.MaxBatch)
	for _, b := range rep.Batches {
		t0 := time.Now()
		idx = idx[:0]
		for _, r := range b.Members {
			idx = append(idx, st.trace.Requests[r].Image)
		}
		x, _, err := st.test.Gather(idx)
		if err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		logits := st.pool.Replica(b.Replica).Forward(x, false)
		t2 := time.Now()
		classes := logits.Numel() / len(b.Members)
		for row, r := range b.Members {
			preds[r] = argmax(logits.Data[row*classes : (row+1)*classes])
		}
		if tr != nil {
			tr.step = append(tr.step, time.Since(t0))
			tr.gather = append(tr.gather, t1.Sub(t0))
			tr.forward += t2.Sub(t1)
		}
	}
	work, _ := u.elapsed()
	if tr != nil {
		acc, _ := kernel.ProfileSnapshot()
		for p := range acc {
			tr.prof[p] += acc[p] - base[p]
		}
		tr.wall += time.Since(u.wall)
		tr.batches = len(rep.Batches)
		tr.batchMean = rep.Stats.MeanBatch()
	}
	return preds, work, nil
}

// checkSingles requires a seeded sample of the served predictions to equal
// a single-image forward of the model the checkpoint was written from:
// batching, replica choice and the checkpoint load are invisible.
func checkSingles(st *serveState, preds []int, seed uint64) error {
	r := rng.New(seed)
	for i := 0; i < serveSamples; i++ {
		req := r.Intn(len(preds))
		x, _, err := st.test.Gather([]int{st.trace.Requests[req].Image})
		if err != nil {
			return err
		}
		if want := argmax(st.source.Forward(x, false).Data); preds[req] != want {
			return fmt.Errorf("request %d served %d, single-image forward %d", req, preds[req], want)
		}
	}
	return nil
}

// argmax is the serving tier's prediction rule: the largest logit, lowest
// index on ties.
func argmax(row []float32) int {
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}
