// Package core is the paper's primary contribution as a reusable engine:
// large-batch synchronous data-parallel training with the LARS optimizer,
// gradual warmup and polynomial learning-rate decay, under a fixed epoch
// budget.
//
// The three training recipes the paper compares are first-class here:
//
//   - BaselineSGD        — momentum SGD at the reference batch size,
//   - LinearScalingWarmup — Goyal et al.'s large-batch recipe (the "without
//     LARS" curves of Figure 4 and the failures of Table 5),
//   - LARSWarmup          — the paper's recipe (Table 7, Figure 4).
//
// A Trainer couples a model factory, the dist engine, the optimizer, the
// schedule and the dataset into one reproducible run that records per-epoch
// metrics, detects divergence (the paper's 0.1%-accuracy rows), and reports
// communication statistics.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Method selects the training recipe.
type Method int

// Recipe choices.
const (
	// BaselineSGD is momentum SGD with the poly schedule at the base rate —
	// the paper's small-batch reference runs.
	BaselineSGD Method = iota
	// LinearScalingWarmup scales the base rate linearly with the batch size
	// and ramps it up over the warmup epochs (Goyal et al. 2017).
	LinearScalingWarmup
	// LARSWarmup adds Layer-wise Adaptive Rate Scaling on top of linear
	// scaling and warmup — the paper's recipe.
	LARSWarmup
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case BaselineSGD:
		return "sgd"
	case LinearScalingWarmup:
		return "linear+warmup"
	case LARSWarmup:
		return "lars+warmup"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config describes one training run.
type Config struct {
	// Model builds one replica; called once per worker with distinct seeds
	// derived from Seed. All replicas are weight-synchronized before step 0.
	Model func(seed uint64) *nn.Network

	Workers int            // data-parallel worker count (default 1)
	Algo    dist.Algorithm // gradient reduction pattern (default Central)

	// Topology optionally arranges the workers into a two-tier node
	// hierarchy (dist.Hierarchy): gradients reduce intra-node first, node
	// leaders exchange across the cluster fabric, and Result.TierComm
	// reports the schedule split by fabric tier. Topology.Workers() must
	// equal Workers; Algo is ignored when set. The trajectory is
	// bit-identical to a flat run with the same Shards — the hierarchy
	// changes only the communication accounting.
	Topology *dist.Hierarchy

	// Shards is the number of logical gradient shards per global batch
	// (default Workers). The shard split — not the worker count — fixes
	// the numerical result: runs with equal Shards are bit-identical for
	// any Workers, which is how the multi-worker path reproduces the
	// single-worker trajectory exactly (pin Shards across both runs).
	Shards int
	// Bucket chunks gradient reduction into buckets of at most this many
	// float32 coordinates (0 = one bucket; see dist.Config.BucketElems).
	Bucket int
	// Overlap fires each bucket's reduction as soon as its gradients are
	// final on every shard, inside the backward pass, instead of after it
	// (dist.Config.Overlap). Values are bit-identical either way;
	// Result.Overlap reports how much of the schedule hid behind the
	// backward. Pair with Bucket — a single bucket cannot hide.
	Overlap bool
	// Reduction selects the gradient-reduction arithmetic
	// (dist.Config.Reduction): CanonicalF64 — the default float64
	// canonical-order sum — or PairwiseF32, the fixed-tree float32 kernel.
	// Either policy keeps runs bit-identical across Workers, topologies
	// and Overlap for a pinned shard split; the two policies round
	// differently from each other, so pin the policy too when comparing
	// trajectories.
	Reduction dist.Reduction
	// Codec optionally compresses gradient exchange payloads (lossy;
	// dist.FP16Codec, dist.NewOneBitCodec).
	Codec dist.Codec
	// Profile enables the per-step phase profiler (dist.Config.Profile):
	// Result.Profile then reports hot-loop wall time split into
	// gemm/im2col/reduce/codec/other buckets that sum exactly to the
	// profiled wall time. The profiler is process-global — run one
	// profiled trainer at a time.
	Profile bool
	// Faults optionally injects deterministic drops/stalls into the
	// reduction schedule; recovery is exact (see dist.FaultPlan). Workers
	// the plan marks permanently Dead need Elastic, or Train returns a
	// typed *dist.WorkerDeadError when the death bites.
	Faults *dist.FaultPlan
	// Elastic enables elastic membership (dist.Config.Elastic): a worker
	// whose recovery fails Elastic.EvictAfter consecutive steps is
	// evicted, its shards rebalance over the survivors, and the run
	// continues on P−1 workers — the preemptible-fleet scenario.
	// Result.Membership reports evictions, rebalances and the steps spent
	// at each world size. The trajectory of the surviving run is
	// bit-identical across topologies under the same plan and policy.
	Elastic *dist.Elastic

	Batch  int // global batch size B
	Epochs int // fixed epoch budget E (the paper's invariant)

	Method Method
	// BaseLR is the reference learning rate at BaseBatch. Linear scaling
	// uses BaseLR·Batch/BaseBatch as the target rate.
	BaseLR    float64
	BaseBatch int
	// WarmupEpochs ramps the rate linearly at the start (Table 7 uses up
	// to 13 epochs at batch 4096).
	WarmupEpochs float64
	PolyPower    float64 // default 2, the paper's poly policy
	Momentum     float64 // default 0.9
	WeightDecay  float64 // default 0.0005
	Trust        float64 // LARS trust coefficient, default 0.01 at micro scale

	// Augment enables the weak augmentation (±2 crop, flip) used by the
	// paper's "weak data augmentation" rows.
	Augment bool

	// Resolutions, when non-nil, is the per-epoch input-resolution schedule
	// (the progressive-resolution curriculum of the ENTR hypothesis, e.g.
	// parsed from "12x12@0-3,24x24@4+"). Each epoch's batches are
	// materialized at Resolutions.At(epoch) via data.Dataset.GatherAt —
	// resized with the deterministic kernel resampler before augmentation —
	// and the single engine dispatches the same resized batch to every
	// worker, so all replicas switch resolution in lockstep at epoch
	// boundaries. Shard/span logic is untouched (batches change shape, not
	// indices), which preserves the bit-identity contract across Workers,
	// Topology, Overlap and pinned Shards at both precisions. Evaluation
	// always runs at the dataset's native resolution. Requires a model
	// whose parameter count is resolution-independent (a GAP-headed
	// all-conv net such as models.NewMicroConvNet or NewMicroResNet);
	// flatten→fc models panic at the first off-native shape. Nil trains
	// every epoch at native resolution — bit-identical to the pre-schedule
	// trainer.
	Resolutions *data.ResolutionSchedule

	// Precision selects the storage precision of the conv/fc GEMM operands
	// (tensor.F32, the default, or tensor.F16). Under F16 every replica
	// computes forward and backward through the binary16 kernels with
	// float32 accumulation while the optimizer, gradient reduction and
	// weight broadcast all stay on float32 masters, and Train drives
	// dynamic loss scaling (see LossScale). The F16 trajectory is
	// bit-identical across Workers, Topology, Overlap and pinned Shards —
	// the same decomposition-invariance contract as F32 — but differs from
	// the F32 trajectory (operands round through binary16).
	Precision tensor.Precision
	// LossScale is the initial dynamic loss scale used when Precision is
	// F16 (0 selects opt.DefaultLossScale, 2^16). The seed gradient is
	// multiplied by the scale before backward so small gradients survive
	// binary16 storage; after reduction the float32 master gradients are
	// unscaled exactly (the scale is a power of two) or, on Inf/NaN, the
	// step is skipped and the scale halves. Result.Scale reports the
	// scaler's activity.
	LossScale float64

	// SyncEvery, when > 1, switches the run to local SGD
	// (dist.Config.SyncEvery): every worker steps its own optimizer — the
	// same recipe as the master, LARS or momentum SGD per Method — on its
	// own shard gradients for SyncEvery steps, then the fleet averages
	// weights. Communication volume scales by exactly 1/SyncEvery (see
	// comm.ExpectedLocalSGDStats) at the cost of inter-sync weight drift;
	// Result.LocalSGD reports the step/round ledger. 0 or 1 is the
	// synchronous every-step path, bit-identical to a config without the
	// field. Local mode is incompatible with MicroBatch (gradient
	// accumulation assumes a single master optimizer), and F16 runs train
	// without dynamic loss scaling (the scaler's overflow protocol needs
	// the master-gradient barrier; LossScale is rejected).
	SyncEvery int
	// IntraSyncEvery, when > 0 (requires SyncEvery > 1 and Topology),
	// additionally averages weights inside each node every IntraSyncEvery
	// steps on the cheap intra fabric — the hierarchical local-SGD
	// schedule. Must divide SyncEvery so full boundaries subsume intra
	// ones. Result.TierComm attributes the extra rounds to the intra tier.
	IntraSyncEvery int

	// MicroBatch, when positive and smaller than Batch, processes each
	// global batch in sequential chunks of this size, accumulating
	// gradients before the optimizer step — gradient accumulation, the
	// same memory-driven micro-batching the cluster simulator models for
	// Table 9's B=8192 single-DGX-1 row. The optimizer trajectory matches
	// the single-pass batch up to float32 summation order (batch-norm
	// statistics are per-chunk, as on real hardware).
	MicroBatch int

	Seed uint64
	// EvalEveryEpochs controls how often test accuracy is measured
	// (always at the final epoch). 0 means every epoch.
	EvalEveryEpochs int
	// MaxLoss aborts the run as diverged when the training loss exceeds
	// it (default 25).
	MaxLoss float64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BaseLR == 0 {
		c.BaseLR = 0.05
	}
	if c.BaseBatch == 0 {
		c.BaseBatch = 32
	}
	if c.PolyPower == 0 {
		c.PolyPower = 2
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = 0.0005
	}
	if c.Trust == 0 {
		c.Trust = 0.01
	}
	if c.EvalEveryEpochs == 0 {
		c.EvalEveryEpochs = 1
	}
	if c.MaxLoss == 0 {
		c.MaxLoss = 25
	}
	return c
}

// TargetLR returns the post-warmup learning rate implied by the recipe.
func (c Config) TargetLR() float64 {
	switch c.Method {
	case BaselineSGD:
		return c.BaseLR
	default:
		return opt.LinearScalingRule(c.BaseLR, c.BaseBatch, c.Batch)
	}
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	TestAcc   float64 // NaN when not evaluated this epoch
	LR        float64 // rate at the first step of the epoch
	// ResH, ResW record the input resolution the epoch trained at (the
	// dataset's native size unless Config.Resolutions scheduled another).
	ResH, ResW int
}

// Result is the outcome of one run.
type Result struct {
	Config     Config
	History    []EpochStats
	FinalLoss  float64
	TestAcc    float64 // final top-1 test accuracy
	BestAcc    float64 // peak test accuracy over the run (the paper reports peak)
	Diverged   bool
	Iterations int64
	Wall       time.Duration
	Comm       dist.CommStats
	// TierComm splits Comm by fabric tier when Config.Topology arranged
	// the workers hierarchically; zero for flat runs.
	TierComm dist.TierStats
	// Overlap splits Comm into the rounds and bytes hidden behind the
	// backward pass versus exposed at the step barrier. Everything is
	// exposed unless Config.Overlap was set.
	Overlap dist.OverlapStats
	// LocalSGD is the local-SGD step/round ledger (local steps taken, full
	// weight-averaging rounds, intra-node-only rounds). Zero unless
	// Config.SyncEvery > 1.
	LocalSGD dist.LocalSGDStats
	// Membership reports the elastic-membership activity of the run:
	// evictions, rebalanced shards and resync bytes, and the number of
	// steps executed at each world size. Zero evictions unless
	// Config.Elastic was set and the fault plan killed a worker.
	Membership dist.MembershipStats
	// Profile splits the run's hot-loop wall time into
	// gemm/im2col/convert/reduce/codec/other phase buckets (summing
	// exactly to Profile.WallNS). Zero unless Config.Profile was set.
	Profile dist.ProfileStats
	// Scale reports the dynamic loss scaler's final scale and its
	// overflow/growth counters. Zero unless the run trained under
	// Config.Precision == tensor.F16 (or an explicit Config.LossScale).
	Scale opt.ScaleStats
}

// ConfigError is the typed error Train returns for a Config field whose
// value has no meaning (a negative epoch budget, batch, worker count or
// bucket size), before any replica is built.
type ConfigError struct {
	Field string
	Value int
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid Config.%s %d", e.Field, e.Value)
}

// validate rejects meaningless fields of a defaulted config.
func (c Config) validate() error {
	switch {
	case c.Epochs < 1:
		return &ConfigError{"Epochs", c.Epochs}
	case c.Batch < 1:
		return &ConfigError{"Batch", c.Batch}
	case c.Workers < 0:
		return &ConfigError{"Workers", c.Workers}
	case c.Bucket < 0:
		return &ConfigError{"Bucket", c.Bucket}
	}
	return nil
}

// Train runs the configured recipe on the dataset and returns the result.
// It returns an error for a meaningless config (see ConfigError), a batch
// larger than the training set, and infrastructure failures (worker
// panics); divergence is reported in Result.Diverged, matching how the
// paper reports diverged runs as 0.1%-accuracy rows rather than aborted
// experiments.
func Train(cfg Config, ds *data.Synth) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == nil {
		panic("core: Config.Model is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	stepsPerEpoch := len(data.Batches(make([]int, ds.Train.Len()), cfg.Batch))
	if stepsPerEpoch == 0 {
		return nil, fmt.Errorf("core: batch %d exceeds training set %d", cfg.Batch, ds.Train.Len())
	}
	local := cfg.SyncEvery > 1
	if local {
		if cfg.MicroBatch > 0 && cfg.MicroBatch < cfg.Batch {
			panic("core: MicroBatch is incompatible with SyncEvery > 1")
		}
		if cfg.LossScale > 0 {
			panic("core: LossScale is incompatible with SyncEvery > 1 (local mode trains unscaled)")
		}
	}
	start := time.Now()

	replicas := make([]*nn.Network, cfg.Workers)
	for i := range replicas {
		replicas[i] = cfg.Model(cfg.Seed + uint64(i)*7919)
		if cfg.Precision != tensor.F32 {
			replicas[i].SetPrecision(cfg.Precision)
		}
	}
	engine := dist.NewEngine(dist.Config{
		Algo: cfg.Algo, Topology: cfg.Topology, Shards: cfg.Shards, BucketElems: cfg.Bucket,
		Overlap: cfg.Overlap, Reduction: cfg.Reduction, Codec: cfg.Codec,
		Faults: cfg.Faults, Elastic: cfg.Elastic, Profile: cfg.Profile,
		SyncEvery: cfg.SyncEvery, IntraSyncEvery: cfg.IntraSyncEvery,
	}, replicas)
	defer engine.Close()

	// newStepper builds one instance of the run's optimizer recipe over the
	// given parameters: the master's in synchronous mode, one per replica
	// in local mode (each worker steps privately between weight averages).
	newStepper := func(params []*nn.Param) opt.Optimizer {
		switch cfg.Method {
		case LARSWarmup:
			return opt.NewLARS(params, opt.LARSConfig{
				Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay, Trust: cfg.Trust,
			})
		default:
			return opt.NewSGD(params, opt.SGDConfig{
				Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay,
			})
		}
	}
	var optimizer opt.Optimizer
	if local {
		steppers := make([]dist.Stepper, len(replicas))
		for w := range steppers {
			steppers[w] = newStepper(replicas[w].Params())
		}
		engine.SetLocalSteppers(steppers)
	} else {
		optimizer = newStepper(engine.Master().Params())
	}

	totalSteps := stepsPerEpoch * cfg.Epochs
	var sched opt.Schedule = opt.Poly{Base: cfg.TargetLR(), Power: cfg.PolyPower}
	if cfg.Method != BaselineSGD && cfg.WarmupEpochs > 0 {
		sched = opt.Warmup{Inner: sched, WarmupSteps: int(cfg.WarmupEpochs * float64(stepsPerEpoch))}
	}

	var aug *data.Augmenter
	if cfg.Augment {
		aug = data.NewAugmenter(2, true, rng.New(cfg.Seed^0xa5a5a5a5))
	}

	// Dynamic loss scaling rides the F16 path (or an explicit LossScale):
	// the engine scales the seed gradient before backward; after reduction
	// the scaler unscales the float32 master gradients exactly, or skips
	// the step and halves on overflow.
	// Local mode trains F16 unscaled: the scaler's overflow protocol
	// (inspect master gradients, skip the shared step) has no master
	// gradient to inspect when every worker steps privately.
	var scaler *opt.LossScaler
	if !local && (cfg.Precision == tensor.F16 || cfg.LossScale > 0) {
		scaler = opt.NewLossScaler(cfg.LossScale, 0)
	}

	// Gradient-accumulation buffers (allocated only when micro-batching).
	var accum []*tensor.Tensor
	masterParams := engine.Master().Params()
	if cfg.MicroBatch > 0 && cfg.MicroBatch < cfg.Batch {
		accum = make([]*tensor.Tensor, len(masterParams))
		for i, p := range masterParams {
			accum[i] = tensor.New(p.W.Shape...)
		}
	}
	// computeBatchGradient leaves the batch-mean gradient in the master's
	// parameter gradients, chunking through MicroBatch-sized pieces when
	// accumulation is enabled.
	computeBatchGradient := func(x *tensor.Tensor, labels []int) (float64, error) {
		if accum == nil {
			return engine.ComputeGradient(x, labels)
		}
		for _, a := range accum {
			a.Zero()
		}
		imLen := x.Numel() / x.Shape[0]
		b := x.Shape[0]
		var total float64
		for lo := 0; lo < b; lo += cfg.MicroBatch {
			hi := lo + cfg.MicroBatch
			if hi > b {
				hi = b
			}
			shape := append([]int{hi - lo}, x.Shape[1:]...)
			chunk := tensor.FromSlice(x.Data[lo*imLen:hi*imLen], shape...)
			loss, err := engine.ComputeGradient(chunk, labels[lo:hi])
			if err != nil {
				return 0, err
			}
			w := float32(hi-lo) / float32(b)
			total += loss * float64(w)
			for i, p := range masterParams {
				accum[i].Axpy(w, p.G)
			}
		}
		for i, p := range masterParams {
			p.G.CopyFrom(accum[i])
		}
		return total, nil
	}

	res := &Result{Config: cfg, TestAcc: math.NaN()}
	_, nativeH, nativeW := ds.Train.ImageShape()
	step := 0
	for epoch := 0; epoch < cfg.Epochs && !res.Diverged; epoch++ {
		resH, resW := nativeH, nativeW
		if cfg.Resolutions != nil {
			resH, resW = cfg.Resolutions.At(epoch)
		}
		perm := ds.Train.Shuffled(cfg.Seed, epoch)
		var epochLoss float64
		var epochSteps int
		lrAtStart := sched.LR(step, totalSteps)
		for _, idx := range data.Batches(perm, cfg.Batch) {
			// At the native resolution GatherAt is exactly Gather, so
			// nil-schedule runs reproduce the pre-schedule trainer
			// bit-for-bit.
			x, labels, err := ds.Train.GatherAt(idx, resH, resW)
			if err != nil {
				return nil, err
			}
			if aug != nil {
				aug.Apply(x)
			}
			var loss float64
			if local {
				// One local-SGD step: shard gradients stay on their
				// workers, each steps its private optimizer, and the
				// engine averages weights at window boundaries.
				loss, err = engine.LocalStep(x, labels, sched.LR(step, totalSteps))
				if err != nil {
					return nil, err
				}
				if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > cfg.MaxLoss {
					res.Diverged = true
					epochLoss += loss
					epochSteps++
					break
				}
				epochLoss += loss
				epochSteps++
				step++
				continue
			}
			if scaler != nil {
				engine.SetLossScale(scaler.Scale())
			}
			loss, err = computeBatchGradient(x, labels)
			if err != nil {
				return nil, err
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > cfg.MaxLoss {
				res.Diverged = true
				epochLoss += loss
				epochSteps++
				break
			}
			if scaler != nil && !scaler.Update(masterParams) {
				// Overflowed gradients: skip the optimizer step and the
				// weight broadcast (weights are unchanged, so the replicas
				// are still in sync) and retry at the halved scale. The
				// schedule still advances — a skipped step consumes its
				// slot, as on real mixed-precision trainers.
				epochLoss += loss
				epochSteps++
				step++
				continue
			}
			optimizer.Step(sched.LR(step, totalSteps))
			if err := engine.BroadcastWeights(); err != nil {
				return nil, err
			}
			epochLoss += loss
			epochSteps++
			step++
		}
		stats := EpochStats{
			Epoch:     epoch,
			TrainLoss: epochLoss / float64(epochSteps),
			TestAcc:   math.NaN(),
			LR:        lrAtStart,
			ResH:      resH,
			ResW:      resW,
		}
		last := epoch == cfg.Epochs-1 || res.Diverged
		if last || epoch%cfg.EvalEveryEpochs == 0 {
			// Local mode pins evaluation to one live replica: between
			// sync boundaries the replicas legitimately disagree.
			var acc float64
			var err error
			if local {
				acc, err = engine.EvalAccuracyLocal(ds.Test.Images, ds.Test.Labels, 256)
			} else {
				acc, err = engine.EvalAccuracy(ds.Test.Images, ds.Test.Labels, 256)
			}
			if err != nil {
				return nil, err
			}
			stats.TestAcc = acc
			if stats.TestAcc > res.BestAcc {
				res.BestAcc = stats.TestAcc
			}
			res.TestAcc = stats.TestAcc
		}
		res.FinalLoss = stats.TrainLoss
		res.History = append(res.History, stats)
	}
	res.Iterations = engine.Steps()
	res.Comm = engine.Stats()
	res.TierComm = engine.TierStats()
	res.Overlap = engine.OverlapStats()
	res.LocalSGD = engine.LocalSGD()
	res.Membership = engine.Membership()
	res.Profile = engine.Profile()
	if scaler != nil {
		res.Scale = scaler.Stats()
	}
	res.Wall = time.Since(start)
	return res, nil
}
