// Command train runs one large-batch training experiment on SynthImageNet
// and prints per-epoch metrics. It exposes every knob of the paper's recipe
// (model, batch, epoch budget, method, warmup, LARS trust) and of the
// synchronous data-parallel engine underneath it.
//
// # Recipe flags
//
// -method selects the training recipe: sgd (momentum SGD at the base rate,
// the small-batch baseline), linear (Goyal et al.'s linear scaling +
// warmup), or lars (the paper's LARS + warmup recipe). -base-lr and
// -base-batch anchor the linear-scaling rule, -warmup sets the ramp in
// epochs, -trust the LARS trust coefficient, -wd the weight decay.
//
// # Engine flags
//
// -workers sets the physical worker (replica) count and -algo the
// allreduce topology it communicates over: central (parameter-server
// star), tree (binomial, ⌈log₂P⌉ rounds) or ring (bandwidth-optimal
// chunked ring).
//
// -per-node arranges the workers into a two-tier node hierarchy of that
// many workers per node (it must divide -workers; 0 keeps the flat
// topology). Gradients then reduce intra-node first under -intra-algo
// (default ring), node leaders exchange across the cluster fabric under
// -algo, and the final report splits the communication counters per fabric
// tier. The trajectory is bit-identical to the flat run — the hierarchy
// changes only the schedule and its accounting.
//
// -shards fixes the logical gradient shard split, which — not the worker
// count — determines the numerical result: pin it across runs to get
// bit-identical trajectories for any -workers. -bucket chunks the gradient
// into reduction buckets of at most that many float32 coordinates (0 = one
// bucket). -overlap fires each bucket's reduction as soon as its gradients
// are final on every shard — inside the backward pass, while earlier layers
// are still back-propagating — instead of after the full backward; the
// trajectory is bit-identical, and the final report adds an overlap line
// splitting the communication rounds and bytes into hidden (reduced inside
// the backward) versus exposed (the first layers' bucket, weight broadcasts,
// recovery traffic). Pair -overlap with -bucket: a single bucket cannot
// hide. -codec compresses reduction payloads on the wire: fp16 (half
// precision) or 1bit (Seide et al.'s 1-bit SGD with error feedback).
// -fault-drop and -fault-stall inject deterministic payload drops and
// stragglers at the given per-(step,worker) probability; recovery is exact
// (values unaffected, retries and stalls accounted).
//
// # Hot-loop knobs
//
// -reduction selects the gradient-reduction arithmetic: canonical (the
// default — strict float64 accumulation in canonical shard order) or
// pairwise (the fixed-tree float32 kernel in internal/kernel — faster, and
// still bit-identical across -workers, topologies and -overlap for a
// pinned -shards split, because the summation tree's shape depends only on
// the shard count). -profile turns on the per-step phase profiler: the
// final report adds a line splitting hot-loop wall time into
// gemm/im2col/convert/reduce/codec/other shares that sum exactly to the
// profiled wall time — the measured answer to "is this run compute- or
// reduction-bound?".
//
// # Mixed precision
//
// -precision f16 switches the conv/fc hot path to binary16 storage: GEMM
// operands (weights, im2col panels, activations and their gradients) are
// packed to IEEE half precision and every product accumulates in float32,
// while the optimizer, gradient reduction and weight broadcast keep float32
// master values — the paper's NVIDIA half-precision recipe. Small gradients
// would flush to zero in binary16, so the trainer runs dynamic loss
// scaling: the loss gradient is multiplied by a power-of-two scale
// (-loss-scale sets the starting point, default 2^16) before backward,
// master gradients are unscaled exactly after reduction, and a step whose
// gradients overflow to Inf/NaN is skipped while the scale halves; after a
// stable stretch the scale doubles again. The final report adds a precision
// line with the scaler's end state. The f16 trajectory keeps the engine's
// bit-identity contract across -workers, topologies and -overlap for a
// pinned -shards split; it differs from the f32 trajectory by construction.
//
// # Progressive resolution (the ENTR curriculum)
//
// -resolutions trains under a per-epoch input-resolution schedule — the
// progressive-resolution curriculum: early epochs see small (cheap) inputs,
// later epochs the full size. The syntax is comma-separated phases of
// "HxW@epochs" with inclusive epoch ranges: "12x12@0-4,24x24@5+" trains
// epochs 0–4 at 12x12 and every epoch from 5 on at 24x24 (a bare "HxW"
// pins the whole run). Batches are resized at materialization with the
// deterministic area/bilinear kernel (area when shrinking, bilinear when
// growing); shard assignments and the engine schedule are untouched, and
// every replica derives the epoch's resolution from the same schedule, so
// the trajectory keeps the bit-identity contract across -workers,
// topologies and -overlap for a pinned -shards split. Evaluation always
// runs at the native -image-size. The schedule needs a model whose weight
// count does not depend on the input size — a GAP-headed net (micro-convnet
// or micro-resnet); micro-alexnet and mlp bake the canonical H×W into their
// classifier and are rejected. The per-epoch report gains a res column, and
// cluster.SimulateProgressive prices the same schedule analytically.
//
// # Local SGD (trading communication for computation)
//
// -sync-every H switches the engine from every-step gradient allreduce to
// local SGD: every worker runs H private optimizer steps — the same recipe
// as the master, momentum SGD or LARS per -method — on its own shard
// gradients, and the fleet averages weights only at every H-th step. The
// communication volume scales by exactly 1/H (the final report's comm
// counters match comm.ExpectedLocalSGDStats counter-for-counter), bought
// with inter-sync weight drift; H=1 is bit-identical to not passing the
// flag at all. With -per-node set, -intra-sync-every Hi adds cheap
// intra-node weight averages every Hi steps between the rare full rounds
// (Hi must divide H), attributed to the intra tier in the tiers line.
// Elastic membership composes: evictions and joins land only on window
// boundaries, the sole steps at which the fleet is weight-coherent.
//
// Worked comm-bound example: micro-alexnet at width 8 carries ~0.18M
// parameters, so one ring round at P=4 moves ~2.6 MB through the engine
// (2(P−1)/P reduce + broadcast legs per worker). At batch 256 a step
// computes in a few ms, so on a slow fabric the allreduce dominates the
// step; -sync-every 8 cuts the wire volume 8x and turns the run
// compute-bound while the loss trajectory stays within the drift budget
// the LocalSGD study tables (EXPERIMENTS.md) quantify:
//
//	train -model micro-alexnet -batch 256 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -sync-every 8
//
// The hierarchical schedule on a simulated two-node cluster — intra-node
// averages every 2 steps on the cheap fabric, full averages every 8:
//
//	train -model micro-alexnet -batch 256 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -per-node 2 -algo tree \
//	      -sync-every 8 -intra-sync-every 2
//
// # Elastic membership (preemptible fleets)
//
// -fault-dead kills workers permanently: "3@40" makes worker 3 answer
// nothing from step 40 on (comma-separate for several, e.g. "2@40,3@40").
// A dead worker cannot be recovered, so by default the run aborts with a
// typed worker-dead error when the death bites. -elastic instead turns on
// elastic membership: after -evict-after consecutive failed recoveries the
// engine evicts the dead worker, rebalances the logical shard spans over
// the surviving P−1 workers, shrinks the topology (a hierarchy node losing
// all its workers leaves the inter tier), re-broadcasts the weights, and
// keeps training in lockstep at the smaller world size. -fault-join is the
// mirror image: "3@60" admits worker 3 at the step-60 boundary — a fresh
// replica starts pending and joins warm-started from a weight broadcast; a
// worker that is also in -fault-dead at an earlier step rejoins after its
// outage (preempted capacity coming back). The spans rebalance upward over
// P+1, a refilled hierarchy node rejoins the inter tier, and the final
// report's membership line covers both directions: evictions, joins,
// rebalanced shards, resync/warm-start bytes, the steps spent at each
// world size, and the signed event timeline ("-3@41 +3@60"). Given the
// same fault plan and policy the resizing run is bit-identical across
// -algo choices, every post-eviction step is bit-identical to a fresh run
// at the smaller world started from the rebalanced weights, and every
// post-join step to a fresh run at the grown world started from the
// broadcast weights.
//
// # Worked examples
//
// The paper's recipe at batch 1024 on 4 workers with ring allreduce,
// reporting per-epoch loss/accuracy and the communication counters:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring
//
// The same run on a simulated two-node cluster (2 workers per node, ring
// inside the node, tree across node leaders), with fp16 wire compression
// and a 1% straggler rate — the final line adds per-tier message/byte/round
// counters for the intra and inter fabrics:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -per-node 2 -intra-algo ring -algo tree \
//	      -codec fp16 -fault-stall 0.01
//
// The paper's recipe with gradient reduction overlapped with the backward
// pass, 4096-coordinate buckets firing as their layers' gradients land:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -bucket 4096 -overlap
//
// A preemptible fleet: worker 3 is reclaimed at step 40, declared dead
// after 3 missed recoveries, and evicted; the run finishes on the three
// survivors and reports the world-size timeline:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -fault-dead 3@40 \
//	      -elastic -evict-after 3
//
// The same preemption with the capacity coming back: worker 3 is reclaimed
// at step 40, evicted, then readmitted at the step-60 boundary — the
// membership line reports one eviction, one join and the "-3@43 +3@60"
// event timeline, and the run finishes back at full strength:
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -algo ring -fault-dead 3@40 \
//	      -fault-join 3@60 -elastic -evict-after 3
//
// The paper's recipe on the fast reduction kernel, with the hot loop
// profiled — the final lines report the phase shares and pin the run to
// the pairwise-f32 summation tree (bit-identical for any -workers at this
// -shards split):
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -shards 4 -algo ring \
//	      -reduction pairwise -profile
//
// The paper's recipe on the binary16 compute path with the hot loop
// profiled — the profile line's convert share is the packing overhead, the
// gemm share shrinks against the f32 run, and the closing precision line
// reports the dynamic loss scaler's end state (scale, skipped steps,
// growths):
//
//	train -model micro-alexnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -shards 4 -algo ring \
//	      -precision f16 -profile
//
// The ENTR curriculum on the GAP-headed conv net: the first five epochs
// train at 4/9-area 16x16 inputs (~2.25x fewer FLOPs per image per conv
// layer), the rest at the native 24x24 — same epoch budget, less wall
// time, and still bit-identical for any -workers at this -shards split:
//
//	train -model micro-convnet -batch 1024 -epochs 15 -method lars \
//	      -warmup 2 -workers 4 -shards 4 -algo ring \
//	      -resolutions 16x16@0-4,24x24@5+
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")

	var (
		modelName   = flag.String("model", "micro-alexnet", "model: micro-alexnet | micro-alexnet-lrn | micro-convnet | micro-resnet | mlp")
		batch       = flag.Int("batch", 32, "global batch size")
		epochs      = flag.Int("epochs", 15, "fixed epoch budget")
		method      = flag.String("method", "lars", "recipe: sgd | linear | lars")
		baseLR      = flag.Float64("base-lr", 0.05, "learning rate at the base batch")
		baseBatch   = flag.Int("base-batch", 32, "reference batch for linear scaling")
		warmup      = flag.Float64("warmup", 2, "warmup epochs (linear/lars)")
		trust       = flag.Float64("trust", 0.01, "LARS trust coefficient")
		wd          = flag.Float64("wd", 0.0005, "weight decay")
		workers     = flag.Int("workers", 2, "data-parallel workers")
		algo        = flag.String("algo", "ring", "allreduce topology: central | tree | ring (cross-node tier when -per-node is set)")
		perNode     = flag.Int("per-node", 0, "workers per node for the two-tier hierarchical allreduce (0 = flat; must divide -workers)")
		intraAlgo   = flag.String("intra-algo", "ring", "within-node allreduce when -per-node is set: central | tree | ring")
		shards      = flag.Int("shards", 0, "logical gradient shards (0 = one per worker; pin across runs for bit-identical results)")
		bucket      = flag.Int("bucket", 0, "gradient bucket size in float32 coords (0 = one bucket)")
		overlap     = flag.Bool("overlap", false, "fire bucket reductions inside the backward pass (bit-identical; adds hidden/exposed accounting)")
		reduction   = flag.String("reduction", "canonical", "gradient reduction arithmetic: canonical (f64 canonical order) | pairwise (fixed-tree f32 kernel)")
		profile     = flag.Bool("profile", false, "profile the hot loop per step and report gemm/im2col/convert/reduce/codec/other wall-time shares")
		precision   = flag.String("precision", "f32", "compute precision: f32 | f16 (binary16 GEMM operands, float32 accumulation and masters)")
		lossScale   = flag.Float64("loss-scale", 0, "initial dynamic loss scale under -precision f16 (0 = 2^16; rounded to a power of two)")
		codec       = flag.String("codec", "", "gradient payload codec: \"\" (raw) | fp16 | 1bit")
		dropRate    = flag.Float64("fault-drop", 0, "per-(step,worker) payload drop probability (deterministic, exact recovery)")
		stallRate   = flag.Float64("fault-stall", 0, "per-(step,worker) straggler probability")
		faultDead   = flag.String("fault-dead", "", "permanently kill workers: \"w@step\" pairs, comma-separated (e.g. \"3@40,2@60\")")
		faultJoin   = flag.String("fault-join", "", "admit workers at a step boundary: \"w@step\" pairs, comma-separated (requires -elastic; a worker also in -fault-dead rejoins after its outage)")
		elastic     = flag.Bool("elastic", false, "evict persistently dead workers and continue on the survivors (elastic membership)")
		evictAfter  = flag.Int("evict-after", 0, "consecutive failed recoveries before eviction (0 = default 3; needs -elastic)")
		syncEvery   = flag.Int("sync-every", 0, "local SGD period H: private optimizer steps between weight averages (0/1 = synchronous every-step path)")
		intraSync   = flag.Int("intra-sync-every", 0, "intra-node weight-average period Hi under -per-node (must divide -sync-every; 0 = off)")
		resolutions = flag.String("resolutions", "", "per-epoch input-resolution schedule, e.g. \"12x12@0-4,24x24@5+\" (needs a GAP-headed model: micro-convnet | micro-resnet)")
		width       = flag.Int("width", 8, "model base width")
		augment     = flag.Bool("augment", false, "enable weak data augmentation")
		seed        = flag.Uint64("seed", 1, "experiment seed")
		trainSize   = flag.Int("train-size", 4096, "synthetic training set size")
		classes     = flag.Int("classes", 8, "synthetic class count")
		imageSize   = flag.Int("image-size", 24, "synthetic image height/width")
		quiet       = flag.Bool("quiet", false, "print only the final summary line")
	)
	flag.Parse()

	var m core.Method
	switch *method {
	case "sgd":
		m = core.BaselineSGD
	case "linear":
		m = core.LinearScalingWarmup
	case "lars":
		m = core.LARSWarmup
	default:
		log.Fatalf("unknown method %q", *method)
	}
	if *workers < 1 {
		log.Fatalf("-workers %d must be >= 1", *workers)
	}

	synCfg := data.DefaultSynthConfig()
	synCfg.TrainSize = *trainSize
	synCfg.Classes = *classes
	synCfg.H, synCfg.W = *imageSize, *imageSize
	ds := data.GenerateSynth(synCfg)

	mcfg := models.MicroConfig{Classes: *classes, InH: *imageSize, InW: *imageSize, Width: *width}
	var factory func(seed uint64) *nn.Network
	switch *modelName {
	case "micro-alexnet":
		factory = func(s uint64) *nn.Network { c := mcfg; c.Seed = s; return models.NewMicroAlexNet(c) }
	case "micro-alexnet-lrn":
		factory = func(s uint64) *nn.Network {
			c := mcfg
			c.Seed = s
			c.UseLRN = true
			return models.NewMicroAlexNet(c)
		}
	case "micro-convnet":
		factory = func(s uint64) *nn.Network { c := mcfg; c.Seed = s; return models.NewMicroConvNet(c) }
	case "micro-resnet":
		factory = func(s uint64) *nn.Network { c := mcfg; c.Seed = s; return models.NewMicroResNet(c) }
	case "mlp":
		factory = func(s uint64) *nn.Network { c := mcfg; c.Seed = s; return models.NewMLP(c) }
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	if *shards != 0 && *shards < *workers {
		log.Fatalf("-shards %d cannot feed -workers %d: need shards >= workers (or 0 for one per worker)", *shards, *workers)
	}

	parseAlgo := func(name string) dist.Algorithm {
		switch name {
		case "central":
			return dist.Central
		case "tree":
			return dist.Tree
		case "ring":
			return dist.Ring
		default:
			log.Fatalf("unknown algorithm %q", name)
			panic("unreachable")
		}
	}
	a := parseAlgo(*algo)

	var topology *dist.Hierarchy
	if *perNode > 0 {
		if *workers%*perNode != 0 {
			log.Fatalf("-per-node %d does not divide -workers %d", *perNode, *workers)
		}
		topology = &dist.Hierarchy{
			Nodes: *workers / *perNode, PerNode: *perNode,
			Intra: parseAlgo(*intraAlgo), Inter: a,
		}
	}

	if *syncEvery < 0 {
		log.Fatalf("-sync-every %d must be >= 0", *syncEvery)
	}
	if *intraSync > 0 {
		if topology == nil {
			log.Fatal("-intra-sync-every needs -per-node (the intra tier averages inside a node)")
		}
		if *syncEvery <= 1 || *syncEvery%*intraSync != 0 {
			log.Fatalf("-intra-sync-every %d must divide -sync-every %d (> 1)", *intraSync, *syncEvery)
		}
	}

	prec, err := tensor.ParsePrecision(*precision)
	if err != nil {
		log.Fatal(err)
	}
	if *lossScale != 0 && prec != tensor.F16 {
		log.Fatal("-loss-scale needs -precision f16")
	}

	var sched *data.ResolutionSchedule
	if *resolutions != "" {
		switch *modelName {
		case "micro-convnet", "micro-resnet":
		default:
			log.Fatalf("-resolutions needs a GAP-headed model (micro-convnet | micro-resnet): %s bakes the %dx%d input size into its classifier weights",
				*modelName, *imageSize, *imageSize)
		}
		sched, err = data.ParseResolutionSchedule(*resolutions)
		if err != nil {
			log.Fatal(err)
		}
	}

	var reductionPolicy dist.Reduction
	switch *reduction {
	case "canonical":
		reductionPolicy = dist.CanonicalF64
	case "pairwise":
		reductionPolicy = dist.PairwiseF32
	default:
		log.Fatalf("unknown reduction %q", *reduction)
	}

	var payloadCodec dist.Codec
	switch *codec {
	case "":
	case "fp16":
		payloadCodec = dist.FP16Codec{}
	case "1bit":
		payloadCodec = dist.NewOneBitCodec()
	default:
		log.Fatalf("unknown codec %q", *codec)
	}

	var dead map[int]int64
	if *faultDead != "" {
		dead = make(map[int]int64)
		for _, spec := range strings.Split(*faultDead, ",") {
			var w int
			var step int64
			if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d@%d", &w, &step); err != nil {
				log.Fatalf("bad -fault-dead entry %q: want \"worker@step\"", spec)
			}
			if w <= 0 || w >= *workers {
				log.Fatalf("-fault-dead worker %d out of range (1..%d; the master cannot die)", w, *workers-1)
			}
			dead[w] = step
		}
	}
	var join map[int]int64
	if *faultJoin != "" {
		if !*elastic {
			log.Fatalf("-fault-join requires -elastic (admission is an elastic-membership move)")
		}
		join = make(map[int]int64)
		for _, spec := range strings.Split(*faultJoin, ",") {
			var w int
			var step int64
			if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d@%d", &w, &step); err != nil {
				log.Fatalf("bad -fault-join entry %q: want \"worker@step\"", spec)
			}
			if w <= 0 || w >= *workers {
				log.Fatalf("-fault-join worker %d out of range (1..%d; the master is always a member)", w, *workers-1)
			}
			join[w] = step
		}
	}
	var faults *dist.FaultPlan
	if *dropRate > 0 || *stallRate > 0 || dead != nil || join != nil {
		faults = &dist.FaultPlan{Seed: *seed, DropRate: *dropRate, StallRate: *stallRate, Dead: dead, Join: join}
	}
	var policy *dist.Elastic
	if *elastic {
		policy = &dist.Elastic{EvictAfter: *evictAfter}
	} else if *evictAfter != 0 {
		log.Fatal("-evict-after needs -elastic")
	}

	cfg := core.Config{
		Model:          factory,
		Workers:        *workers,
		Algo:           a,
		Topology:       topology,
		Shards:         *shards,
		Bucket:         *bucket,
		Overlap:        *overlap,
		Reduction:      reductionPolicy,
		Profile:        *profile,
		Precision:      prec,
		LossScale:      *lossScale,
		Codec:          payloadCodec,
		Faults:         faults,
		Elastic:        policy,
		Batch:          *batch,
		Epochs:         *epochs,
		Method:         m,
		BaseLR:         *baseLR,
		BaseBatch:      *baseBatch,
		WarmupEpochs:   *warmup,
		Trust:          *trust,
		WeightDecay:    *wd,
		Augment:        *augment,
		Resolutions:    sched,
		SyncEvery:      *syncEvery,
		IntraSyncEvery: *intraSync,
		Seed:           *seed,
	}

	res, err := core.Train(cfg, ds)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Printf("# %s batch=%d epochs=%d method=%v target-lr=%.4f workers=%d",
			*modelName, *batch, *epochs, m, cfg.TargetLR(), *workers)
		if sched != nil {
			fmt.Printf(" resolutions=%s", sched)
		}
		fmt.Println()
		if sched != nil {
			fmt.Printf("%-6s %-8s %-10s %-8s %-8s\n", "epoch", "res", "loss", "test-acc", "lr")
		} else {
			fmt.Printf("%-6s %-10s %-8s %-8s\n", "epoch", "loss", "test-acc", "lr")
		}
		for _, e := range res.History {
			acc := "-"
			if !math.IsNaN(e.TestAcc) {
				acc = fmt.Sprintf("%.4f", e.TestAcc)
			}
			if sched != nil {
				fmt.Printf("%-6d %-8s %-10.4f %-8s %-8.4f\n",
					e.Epoch, fmt.Sprintf("%dx%d", e.ResH, e.ResW), e.TrainLoss, acc, e.LR)
			} else {
				fmt.Printf("%-6d %-10.4f %-8s %-8.4f\n", e.Epoch, e.TrainLoss, acc, e.LR)
			}
		}
	}
	status := "ok"
	if res.Diverged {
		status = "DIVERGED"
	}
	fmt.Printf("final: acc=%.4f best=%.4f loss=%.4f iters=%d wall=%s comm_msgs=%d comm_bytes=%d comm_rounds=%d retries=%d stalls=%d status=%s\n",
		res.TestAcc, res.BestAcc, res.FinalLoss, res.Iterations, res.Wall.Round(1e7),
		res.Comm.Messages, res.Comm.Bytes, res.Comm.Steps, res.Comm.Retries, res.Comm.Stalls, status)
	if topology != nil {
		fmt.Printf("tiers: topology=%v intra_msgs=%d intra_bytes=%d intra_rounds=%d inter_msgs=%d inter_bytes=%d inter_rounds=%d\n",
			*topology,
			res.TierComm.Intra.Messages, res.TierComm.Intra.Bytes, res.TierComm.Intra.Steps,
			res.TierComm.Inter.Messages, res.TierComm.Inter.Bytes, res.TierComm.Inter.Steps)
	}
	if *syncEvery > 1 {
		fmt.Printf("localsgd: H=%d Hi=%d local_steps=%d sync_rounds=%d intra_rounds=%d\n",
			*syncEvery, *intraSync,
			res.LocalSGD.LocalSteps, res.LocalSGD.SyncRounds, res.LocalSGD.IntraRounds)
	}
	if *overlap {
		fmt.Printf("overlap: hidden_rounds=%d exposed_rounds=%d hidden_bytes=%d exposed_bytes=%d hidden_frac=%.1f%%\n",
			res.Overlap.HiddenRounds, res.Overlap.ExposedRounds,
			res.Overlap.HiddenBytes, res.Overlap.ExposedBytes,
			100*res.Overlap.HiddenByteFrac())
	}
	if *elastic {
		fmt.Printf("membership: evictions=%d joins=%d rebalanced_shards=%d resync_bytes=%d joined_bytes=%d world_timeline=%s events=%s\n",
			res.Membership.Evictions, res.Membership.Joins,
			res.Membership.RebalancedShards, res.Membership.RebalancedBytes,
			res.Membership.JoinedBytes, res.Membership.Timeline(),
			res.Membership.EventTimeline())
	}
	if *profile {
		fmt.Printf("profile: %s\n", res.Profile)
	}
	if prec == tensor.F16 {
		fmt.Printf("precision: f16 loss_scale=%g overflows=%d growths=%d\n",
			res.Scale.Scale, res.Scale.Overflows, res.Scale.Growths)
	}
	if res.Diverged {
		os.Exit(2)
	}
}
