package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

// trainWorkload is a training workload: one core.Train call per repetition,
// on the harness.DefaultSetup SynthImageNet task.
type trainWorkload struct {
	// config returns the run's recipe for a train seed. Every field
	// core.Train would default is set, so the traced loop can read them.
	config func(seed uint64) core.Config
}

// synthConfig is harness.Setup.Dataset's generator configuration with the
// workload's data seed in place of the fixed one.
func synthConfig(s *harness.Setup, seed uint64) data.SynthConfig {
	cfg := data.DefaultSynthConfig()
	cfg.Classes = s.Classes
	cfg.H, cfg.W = s.ImageSize, s.ImageSize
	cfg.TrainSize = s.TrainSize
	cfg.Seed = seed
	return cfg
}

// recipe fills the core.Config fields both training workloads share: the
// paper's LARS recipe on two ring-allreduce workers, with every default
// spelled out.
func recipe(s *harness.Setup, model func(uint64) *nn.Network, batch, epochs int, seed uint64) core.Config {
	return core.Config{
		Model: model, Workers: 2, Algo: dist.Ring,
		Batch: batch, Epochs: epochs, Method: core.LARSWarmup,
		BaseLR: s.BaseLR, BaseBatch: s.BaseBatch,
		WarmupEpochs: s.WarmupFor(batch), PolyPower: 2, Momentum: 0.9,
		WeightDecay: 0.0005, Trust: s.TrustFor(batch),
		Seed: seed, EvalEveryEpochs: epochs, MaxLoss: 25,
	}
}

// largeBatchConv is micro-AlexNet-BN at the "32K analog" batch: six epochs
// cover the five-epoch warmup and part of the poly decay.
var largeBatchConv = trainWorkload{config: func(seed uint64) core.Config {
	s := harness.DefaultSetup()
	return recipe(s, s.Factory(), s.LargeBatch(), 6, seed)
}}

// smallBatchMLP is a 660k-parameter MLP at the reference batch with
// bucketed, overlapped reduction: one epoch is 64 steps.
var smallBatchMLP = trainWorkload{config: func(seed uint64) core.Config {
	s := harness.DefaultSetup()
	mlp := func(init uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: s.Classes, InH: s.ImageSize, Width: 64, Seed: init})
	}
	cfg := recipe(s, mlp, s.BaseBatch, 1, seed)
	cfg.Bucket, cfg.Overlap = 32768, true
	return cfg
}}

// trainTrace accumulates the traced loop's per-call timings.
type trainTrace struct {
	step, gather         []time.Duration
	grad, optStep, bcast time.Duration
	eval, loopWall       time.Duration // loopWall sums every traced repetition
	ckptWrite, ckptRead  []time.Duration
	prof                 phases
	commBytes, commMsgs  int64
	hiddenFrac           float64
	layers               []*tracer
}

func (w trainWorkload) run(rc runCfg) (*outcome, error) {
	s := harness.DefaultSetup()
	var ds *data.Synth
	setupS, err := timeSetup(func() error {
		ds = data.GenerateSynth(synthConfig(s, derive(rc.seed, saltSynth)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg := w.config(derive(rc.seed, saltTrain))
	stepsPerEpoch := len(data.Batches(make([]int, ds.Train.Len()), cfg.Batch))
	steps := int64(stepsPerEpoch * cfg.Epochs)
	nparams := cfg.Model(0).NumParams()
	wantComm := expectedComm(cfg, nparams, steps)

	o := newOutcome(rc)
	var ref *core.Result
	var untraced rates
	var tracedRates []float64
	var tr trainTrace
	// gate checks one run's result and counts its steps as failed on a
	// mismatch against the closed form, the sanity bounds or the first run.
	gate := func(what string, res *core.Result, err error) {
		o.attempted += steps
		if err == nil {
			err = checkTrain(res, steps, wantComm)
		}
		if err == nil && ref != nil {
			err = sameResult(res, ref)
		}
		if err != nil {
			o.fail(steps, "%s: %v", what, err)
			return
		}
		if ref == nil {
			ref = res
		}
	}
	needSamples := func() bool { return rc.traced && len(tr.step) < minTailSamples }
	repeat(rc.window, needSamples, func() {
		var res *core.Result
		var err error
		measure := func() {
			u := readUsage()
			res, err = core.Train(cfg, ds)
			if err == nil {
				untraced.add(rc.log, "core.Train", float64(res.Iterations)*float64(cfg.Batch), u)
			}
		}
		if rc.traced && len(untraced.work) == 0 {
			o.measureAllocs(measure, steps)
		} else {
			measure()
		}
		gate("core.Train", res, err)
		if !rc.traced {
			return
		}
		var work time.Duration
		res, work, err = tracedTrain(cfg, ds, &tr)
		if err == nil {
			tracedRates = append(tracedRates, float64(res.Iterations)*float64(cfg.Batch)/work.Seconds())
		}
		gate("traced loop", res, err)
	})

	if ref == nil {
		return nil, fmt.Errorf("no run passed the gate")
	}
	if !rc.traced {
		o.vals["img_per_s"] = median(untraced.work)
		o.vals["img_per_cpu_s"] = median(untraced.cpu)
		o.vals["setup_s"] = setupS
	} else {
		if err := tr.report(o.vals, cfg); err != nil {
			return nil, err
		}
		o.vals["core.top1"] = ref.TestAcc
		o.vals["core.final_loss"] = ref.FinalLoss
		o.vals["trace.overhead_frac"] = 1 - median(tracedRates)/median(untraced.work)
		for _, name := range []string{"serve.forward_share", "serve.schedule_share", "serve.batches", "serve.batch_mean"} {
			o.vals[name] = 0
		}
	}
	return o, nil
}

// expectedComm is the closed-form communication of a synchronous run: one
// construction broadcast, then a reduce and a broadcast of every bucket per
// step.
func expectedComm(cfg core.Config, nparams int, steps int64) dist.CommStats {
	var perStep, construct dist.CommStats
	for _, b := range dist.BucketRanges(nparams, cfg.Bucket) {
		payload := 4 * int64(b[1]-b[0])
		perStep.Add(dist.ReduceSchedule(cfg.Algo, cfg.Workers, payload))
		bcast := dist.BroadcastSchedule(cfg.Algo, cfg.Workers, payload)
		perStep.Add(bcast)
		construct.Add(bcast)
	}
	total := construct
	for i := int64(0); i < steps; i++ {
		total.Add(perStep)
	}
	return total
}

// checkTrain is the per-run correctness gate: a finished, non-diverged run
// with every step taken, a finite loss, an accuracy in [0, 1] and exactly
// the closed-form communication.
func checkTrain(res *core.Result, steps int64, want dist.CommStats) error {
	switch {
	case res.Diverged:
		return fmt.Errorf("diverged (final loss %v)", res.FinalLoss)
	case res.Iterations != steps:
		return fmt.Errorf("%d steps, want %d", res.Iterations, steps)
	case math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0):
		return fmt.Errorf("final loss %v", res.FinalLoss)
	case !(res.TestAcc >= 0 && res.TestAcc <= 1):
		return fmt.Errorf("test accuracy %v", res.TestAcc)
	case res.Comm != want:
		return fmt.Errorf("comm %+v, closed form %+v", res.Comm, want)
	}
	return nil
}

// sameResult requires bit-for-bit agreement of two runs at the same seed.
func sameResult(got, want *core.Result) error {
	if math.Float64bits(got.FinalLoss) != math.Float64bits(want.FinalLoss) ||
		math.Float64bits(got.TestAcc) != math.Float64bits(want.TestAcc) ||
		got.Comm != want.Comm || got.Iterations != want.Iterations {
		return fmt.Errorf("loss %v acc %v comm %+v, reference loss %v acc %v comm %+v",
			got.FinalLoss, got.TestAcc, got.Comm, want.FinalLoss, want.TestAcc, want.Comm)
	}
	return nil
}

// tracedTrain drives the same work as core.Train's synchronous LARS path
// call by call — same replica seeds, schedule, shuffle and gather order,
// evaluation calls — timing each call into data, dist, opt, nn and
// checkpoint. It returns the fields core.Train would report, so the gate
// can demand bit-identity with the untraced run, and the loop's work time
// (see usage), which spans what core.Train's does.
func tracedTrain(cfg core.Config, ds *data.Synth, tr *trainTrace) (*core.Result, time.Duration, error) {
	if cfg.Method != core.LARSWarmup || cfg.SyncEvery > 1 || cfg.MicroBatch > 0 || cfg.Augment ||
		cfg.Resolutions != nil || cfg.Precision != 0 || cfg.Shards != 0 {
		return nil, 0, fmt.Errorf("traced loop mirrors only the synchronous f32 LARS path")
	}
	u := readUsage()
	replicas := make([]*nn.Network, cfg.Workers)
	for i := range replicas {
		replicas[i] = cfg.Model(cfg.Seed + uint64(i)*7919)
	}
	layers := newTracer(replicas...)
	layers.wrap()
	tr.layers = append(tr.layers, layers)
	engine := dist.NewEngine(dist.Config{
		Algo: cfg.Algo, BucketElems: cfg.Bucket, Overlap: cfg.Overlap, Profile: true,
	}, replicas)
	defer engine.Close()
	lars := opt.NewLARS(engine.Master().Params(), opt.LARSConfig{
		Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay, Trust: cfg.Trust,
	})
	stepsPerEpoch := len(data.Batches(make([]int, ds.Train.Len()), cfg.Batch))
	totalSteps := stepsPerEpoch * cfg.Epochs
	var sched opt.Schedule = opt.Poly{Base: cfg.TargetLR(), Power: cfg.PolyPower}
	if cfg.WarmupEpochs > 0 {
		sched = opt.Warmup{Inner: sched, WarmupSteps: int(cfg.WarmupEpochs * float64(stepsPerEpoch))}
	}

	res := &core.Result{TestAcc: math.NaN()}
	_, h, w := ds.Train.ImageShape()
	step := 0
	for epoch := 0; epoch < cfg.Epochs && !res.Diverged; epoch++ {
		perm := ds.Train.Shuffled(cfg.Seed, epoch)
		var epochLoss float64
		var epochSteps int
		for _, idx := range data.Batches(perm, cfg.Batch) {
			t0 := time.Now()
			x, labels, err := ds.Train.GatherAt(idx, h, w)
			if err != nil {
				return nil, 0, err
			}
			t1 := time.Now()
			loss, err := engine.ComputeGradient(x, labels)
			if err != nil {
				return nil, 0, err
			}
			t2 := time.Now()
			if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > cfg.MaxLoss {
				res.Diverged = true
				epochLoss += loss
				epochSteps++
				break
			}
			lars.Step(sched.LR(step, totalSteps))
			t3 := time.Now()
			if err := engine.BroadcastWeights(); err != nil {
				return nil, 0, err
			}
			t4 := time.Now()
			tr.step = append(tr.step, t4.Sub(t0))
			tr.gather = append(tr.gather, t1.Sub(t0))
			tr.grad += t2.Sub(t1)
			tr.optStep += t3.Sub(t2)
			tr.bcast += t4.Sub(t3)
			p := engine.StepProfile()
			tr.prof.add(p.GemmNS, p.Im2colNS, p.ConvertNS, p.ReduceNS)
			c := engine.StepStats()
			tr.commBytes += c.Bytes
			tr.commMsgs += c.Messages
			epochLoss += loss
			epochSteps++
			step++
		}
		if last := epoch == cfg.Epochs-1 || res.Diverged; last || epoch%cfg.EvalEveryEpochs == 0 {
			t0 := time.Now()
			acc, err := engine.EvalAccuracy(ds.Test.Images, ds.Test.Labels, 256)
			if err != nil {
				return nil, 0, err
			}
			tr.eval += time.Since(t0)
			res.TestAcc = acc
		}
		res.FinalLoss = epochLoss / float64(epochSteps)
	}
	res.Iterations = engine.Steps()
	res.Comm = engine.Stats()
	tr.hiddenFrac = engine.OverlapStats().HiddenByteFrac()
	work, _ := u.elapsed()
	tr.loopWall += time.Since(u.wall)
	if _, err := roundTrip(engine.Master(), res.Iterations, &tr.ckptWrite, &tr.ckptRead); err != nil {
		return nil, 0, err
	}
	return res, work, nil
}

// roundTrip writes a network's checkpoint to memory and reads it back,
// timing both calls and requiring the read-back values to match bit for
// bit. It returns the checkpoint as read.
func roundTrip(net *nn.Network, step int64, writes, reads *[]time.Duration) (*checkpoint.Checkpoint, error) {
	c := checkpoint.FromNetwork(net, step)
	var buf bytes.Buffer
	t0 := time.Now()
	if err := c.Write(&buf); err != nil {
		return nil, err
	}
	t1 := time.Now()
	back, err := checkpoint.Read(&buf)
	if err != nil {
		return nil, err
	}
	*writes = append(*writes, t1.Sub(t0))
	*reads = append(*reads, time.Since(t1))
	if back.Step != step || len(back.Sections) != len(c.Sections) {
		return nil, fmt.Errorf("checkpoint read back step %d with %d sections, wrote step %d with %d",
			back.Step, len(back.Sections), step, len(c.Sections))
	}
	for i, s := range c.Sections {
		got := back.Sections[i]
		if got.Name != s.Name || len(got.Data) != len(s.Data) {
			return nil, fmt.Errorf("checkpoint section %d read back as %q[%d], wrote %q[%d]",
				i, got.Name, len(got.Data), s.Name, len(s.Data))
		}
		for j, v := range s.Data {
			if math.Float32bits(got.Data[j]) != math.Float32bits(v) {
				return nil, fmt.Errorf("checkpoint section %q value %d read back as %v, wrote %v", s.Name, j, got.Data[j], v)
			}
		}
	}
	return back, nil
}

// report writes the traced loop's per-layer metrics. Shares are of the
// summed step wall time; layer shares are per worker, since the workers
// run their replicas' layers concurrently.
func (t *trainTrace) report(vals map[string]float64, cfg core.Config) error {
	wall := sum(t.step)
	steps := float64(len(t.step))
	if err := addStepTail(vals, t.step); err != nil {
		return err
	}
	vals["data.gather_ms_p50"] = p50(ms(t.gather))
	share := func(d time.Duration) float64 { return float64(d) / float64(wall) }
	vals["dist.grad_share"] = share(t.grad)
	vals["dist.bcast_share"] = share(t.bcast)
	vals["opt.step_share"] = share(t.optStep)
	vals["dist.eval_share"] = float64(t.eval) / float64(t.loopWall)
	vals["dist.comm_mb_per_step"] = float64(t.commBytes) / steps / 1e6
	vals["dist.comm_msgs_per_step"] = float64(t.commMsgs) / steps
	vals["dist.hidden_bytes_frac"] = t.hiddenFrac
	t.prof.addShares(vals, wall)
	vals["core.fixed_share"] = vals["opt.step_share"] + vals["dist.bcast_share"] + vals["dist.reduce_share"]
	addLayerShares(vals, wall, cfg.Workers, t.layers...)
	vals["checkpoint.write_ms"] = p50(ms(t.ckptWrite))
	vals["checkpoint.read_ms"] = p50(ms(t.ckptRead))
	return nil
}
