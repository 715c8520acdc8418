package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/kernel"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Config configures an Engine.
type Config struct {
	// Algo selects the allreduce topology (default Central, the zero
	// value; Ring is what the paper's large systems use). Ignored when
	// Topology is set.
	Algo Algorithm
	// Topology optionally arranges the workers into a two-tier node
	// hierarchy: reductions then run intra-node first, feeding a
	// cross-node exchange among node leaders, and the schedule is
	// accounted per fabric tier (Engine.TierStats) as well as in the
	// aggregate counters. Topology.Workers() must equal the replica
	// count. nil keeps the flat single-fabric Algo schedule. Values are
	// unaffected either way — hierarchical runs are bit-identical to flat
	// ones with the same shard split.
	Topology *Hierarchy
	// Shards is the number of logical gradient shards each global batch
	// is split into; 0 means one per worker. The shard split — not the
	// worker count — determines the numerical result: two engines with
	// equal Shards produce bit-identical gradients for any worker counts.
	Shards int
	// BucketElems chunks the flat gradient into reduction buckets of at
	// most this many float32 coordinates, each reduced as its own
	// collective (the overlap-friendly granularity real frameworks use;
	// more, smaller messages). 0 reduces the whole gradient as one
	// bucket.
	BucketElems int
	// Overlap fires each bucket's reduction as soon as the gradients it
	// covers are final on every shard — while later layers are still
	// back-propagating — instead of reducing everything after the full
	// backward pass. A per-parameter gradient-ready notification from
	// nn.Network.Backward drives an overlap scheduler that launches a
	// bucket's allreduce the moment its last covering parameter lands.
	// Values stay canonical and bit-identical to the non-overlapped path
	// (same per-coordinate arithmetic, same codec state); what changes is
	// when the collectives run and how they are accounted: OverlapStats
	// splits every step's rounds and bytes into hidden (reduced inside
	// the backward) versus exposed (the bucket covering the first
	// parameter, weight broadcasts, recovery traffic). Pair with
	// BucketElems — with a single bucket nothing can hide.
	Overlap bool
	// Reduction selects the arithmetic of the gradient reduction:
	// CanonicalF64 (the default — strict left-to-right float64
	// accumulation in canonical shard order) or PairwiseF32 (the
	// fixed-tree float32 kernel; faster, still bit-identical across
	// worker counts, topologies, shard-to-worker assignments and
	// overlap, because the tree shape depends only on the live shard
	// count). Changing the policy changes the reduced values slightly
	// (different rounding), so pin it across runs being compared.
	Reduction Reduction
	// Codec optionally compresses every reduction payload on the wire
	// (lossy; see FP16Codec and OneBitCodec). nil exchanges raw float32.
	Codec Codec
	// Profile enables the per-step phase profiler: hot-loop wall time is
	// attributed to gemm/im2col/reduce/codec phases (internal/kernel's
	// global profiler) and surfaced as ProfileStats whose five buckets
	// sum exactly to the measured step wall time. The profiler is
	// process-global — profile one engine at a time.
	Profile bool
	// StartStep sets the engine's initial step counter — the cursor that
	// keys the deterministic fault schedule (FaultPlan rolls are a pure
	// function of the absolute step) and the membership timeline. Resuming
	// a checkpointed run with StartStep = Checkpoint.Step makes the
	// remaining steps' fault rolls, recovery traffic and (with restored
	// codec residuals) reduced values bit-identical to the uninterrupted
	// run. 0 starts fresh.
	StartStep int64
	// Faults optionally injects deterministic drops and stalls into the
	// reduction schedule. Recovery is exact: values are unaffected. A
	// worker the plan marks permanently Dead never recovers — pair with
	// Elastic, or the step loop surfaces a *WorkerDeadError. The plan's
	// Join map schedules workers to enter the collective mid-run (it too
	// requires Elastic).
	Faults *FaultPlan
	// SyncEvery is the local-SGD synchronization period H: workers run H
	// local optimizer steps between collectives, then average *weights*
	// (parameters, not gradients) — Codreanu et al.'s periodic averaging,
	// cutting comm volume by 1/H. 0 and 1 both mean the standard
	// every-step path: the engine is bit-identical to one whose config
	// never mentioned SyncEvery. H > 1 runs are driven through
	// Engine.LocalStep (after SetLocalSteppers) instead of the
	// ComputeGradient/optimizer/BroadcastWeights loop; sync boundaries —
	// every H-th step — are the only points where collectives run and the
	// only legal membership-change points (joins admit at window starts,
	// evictions close windows; the fault-plan eviction clock ticks in sync
	// rounds, since a dead worker is only *observed* at a barrier).
	SyncEvery int
	// IntraSyncEvery layers hierarchical periodic averaging onto local
	// SGD: every IntraSyncEvery steps the members of each Topology node
	// average their weights over the cheap intra-node fabric, while the
	// full two-tier average still runs only every SyncEvery steps —
	// frequent local averaging, rare global averaging. Requires Topology
	// and SyncEvery > 1, and must divide SyncEvery so the tiers nest.
	// Intra-only rounds are accounted exclusively on the intra tier of
	// TierStats. 0 disables the intermediate tier; IntraSyncEvery ==
	// SyncEvery is allowed and degenerates to plain local SGD (every
	// intra boundary is already a full boundary).
	IntraSyncEvery int
	// Elastic enables elastic membership: a worker whose recovery fails
	// Elastic.EvictAfter consecutive steps is evicted from the collective,
	// its shards rebalance over the surviving P−1 workers, the topology
	// shrinks, and training continues in lockstep at the smaller world
	// size; a worker the fault plan schedules to Join enters at its step
	// boundary the same way in reverse — warm-started by an accounted
	// weight broadcast at the grown world (see the Elastic type for the
	// full state machine and the determinism contract). nil keeps the
	// fixed-membership behavior.
	Elastic *Elastic
}

// Engine drives synchronous data-parallel SGD over W model replicas using W
// persistent worker goroutines in lockstep. Per training step the caller
// runs ComputeGradient (shard forward/backward + gradient allreduce into
// the master replica), steps the optimizer on the master's parameters, and
// calls BroadcastWeights to resynchronize the replicas — the exact
// two-phase structure the paper's cost model prices.
//
// The engine is not safe for concurrent use; like the replicas it owns, it
// belongs to one training loop. Close releases the worker goroutines.
type Engine struct {
	cfg      Config
	replicas []*nn.Network
	params   [][]*nn.Param // per-replica parameter lists
	nparams  int           // total float32 coordinates per replica
	buckets  [][2]int      // bucket coordinate ranges

	// Membership state machine (see Elastic). alive marks the replicas
	// currently in the collective; world counts them. started marks the
	// replicas with a running worker goroutine (pending joiners have none
	// yet; evicted workers' goroutines are released). consecDead tracks
	// each worker's consecutive failed recoveries toward eviction. shards
	// is the current logical shard count — it follows the world size down
	// on evictions and up on joins when shardsTrack is set (Config.Shards
	// was left zero with no codec). nodes holds each hierarchy node's
	// live members in ascending worker order (nil when flat).
	alive       []bool
	started     []bool
	joinDone    []bool // fault-plan Join entries already applied (one admission each)
	world       int
	consecDead  []int
	shards      int
	shardsTrack bool
	nodes       [][]int

	// Overlap-scheduler structures (see Config.Overlap). paramOffs maps
	// master parameter index to its flat-gradient offset; paramBuckets
	// lists the buckets each parameter's coordinates fall into;
	// coverCount is the number of parameters covering each bucket; and
	// bucketHidden marks the buckets that become ready strictly before
	// the backward pass ends (they do not cover parameter 0, the last
	// gradient to land).
	paramOffs    []int
	paramBuckets [][]int
	coverCount   []int
	bucketHidden []bool
	curSlot      []int          // per worker: logical shard being back-propagated
	remaining    []atomic.Int64 // per bucket: outstanding (shard, param) landings
	readyCh      chan int       // per step: buckets whose gradients are final

	jobs []chan job
	done chan error
	wg   sync.WaitGroup

	grads  [][]float32 // per logical shard: flat gradient
	losses []float64   // per logical shard: mean loss over the shard
	evalOK []int       // per worker: correct predictions of the last eval

	// Local-SGD machinery (see Config.SyncEvery). localSteppers holds one
	// optimizer per replica, stepped by the worker goroutines at the tail of
	// a jobLocal; localBuf is per-worker flat scratch, holding the locally
	// reduced gradient during the step and the flattened weights at sync
	// boundaries.
	localSteppers []Stepper
	localBuf      [][]float32

	reduced    []float32 // scratch: reduced flat vector (gradient, or averaged weights)
	steps      int64
	total      ledger  // run totals, the construction broadcast included
	last       ledger  // the counters of the most recent training step
	profActive bool    // true once construction is done: the profile covers training steps, not setup
	profiling  bool    // a profile window is open (nested windows fold into it)
	lossScale  float32 // multiplier applied to dL/dy before Backward (0 or 1: off)
	closed     bool
}

// ledger is one record of every counter the engine keeps. The engine holds
// two: the run total and the most recent step; file writes each event into
// both.
type ledger struct {
	comm       CommStats
	tiers      TierStats // per-fabric split of comm (hierarchical runs only)
	overlap    OverlapStats
	membership MembershipStats
	profile    ProfileStats // phase profile (Config.Profile only)
	local      LocalSGDStats
}

// file applies one accounting event to the run total and to the step.
func (e *Engine) file(event func(l *ledger)) {
	event(&e.total)
	event(&e.last)
}

// SetLossScale sets the factor every worker multiplies the loss gradient by
// before back-propagating — the producer half of mixed-precision loss
// scaling (the consumer, opt.LossScaler.Update, unscales the reduced
// float32 gradients or skips the step on overflow). 0 and 1 both mean
// unscaled. Call it between steps only: the worker goroutines read it while
// a gradient job is in flight, and the job channels provide the
// happens-before edge for a write made before dispatch.
func (e *Engine) SetLossScale(s float32) { e.lossScale = s }

type jobKind int

const (
	jobGrad jobKind = iota
	jobEval
	jobSync
	jobLocal
)

// job is one lockstep command to a worker.
type job struct {
	kind   jobKind
	x      *tensor.Tensor
	labels []int
	spans  [][2]int // row spans, indexed by slot
	slots  []int    // which spans this worker owns
	lr     float64  // learning rate of a local optimizer step (jobLocal)
}

// NewEngine builds an engine over the given replicas (one per worker; at
// least one required) and synchronizes their weights to the master
// (replicas[0]) so all workers start from identical parameters.
func NewEngine(cfg Config, replicas []*nn.Network) *Engine {
	if len(replicas) == 0 {
		panic("dist: NewEngine needs at least one replica")
	}
	// Only the default per-worker shard split follows the world size down
	// on elastic evictions. An explicitly pinned Shards — even one equal
	// to the worker count — stays pinned, preserving the bit-identity
	// promise of pinned runs; and any codec keeps the split fixed too, so
	// its slot-keyed state (1-bit error feedback) never remaps onto a
	// different shard's data mid-run.
	trackWorld := cfg.Shards == 0 && cfg.Codec == nil
	if cfg.Shards == 0 {
		cfg.Shards = len(replicas)
	}
	if cfg.Shards < len(replicas) {
		panic(fmt.Sprintf("dist: %d shards cannot feed %d workers", cfg.Shards, len(replicas)))
	}
	if h := cfg.Topology; h != nil {
		h.validate()
		if h.Workers() != len(replicas) {
			panic(fmt.Sprintf("dist: %v hierarchy needs %d workers, engine has %d replicas", *h, h.Workers(), len(replicas)))
		}
	}
	if cfg.SyncEvery < 0 {
		panic(fmt.Sprintf("dist: Config.SyncEvery = %d: the synchronization period cannot be negative", cfg.SyncEvery))
	}
	if cfg.IntraSyncEvery < 0 {
		panic(fmt.Sprintf("dist: Config.IntraSyncEvery = %d: the intra-node period cannot be negative", cfg.IntraSyncEvery))
	}
	if cfg.IntraSyncEvery > 0 {
		if cfg.Topology == nil {
			panic("dist: Config.IntraSyncEvery needs Config.Topology (intra-node averaging needs nodes)")
		}
		if cfg.SyncEvery <= 1 {
			panic("dist: Config.IntraSyncEvery needs Config.SyncEvery > 1 (every step already fully synchronizes)")
		}
		if cfg.SyncEvery%cfg.IntraSyncEvery != 0 {
			panic(fmt.Sprintf("dist: Config.IntraSyncEvery = %d must divide Config.SyncEvery = %d so the averaging tiers nest", cfg.IntraSyncEvery, cfg.SyncEvery))
		}
	}
	if f := cfg.Faults; f != nil {
		for w := range f.Dead {
			if w == 0 {
				panic("dist: FaultPlan.Dead cannot mark worker 0 (the master) dead")
			}
			if w < 0 || w >= len(replicas) {
				panic(fmt.Sprintf("dist: FaultPlan.Dead marks worker %d, engine has %d replicas", w, len(replicas)))
			}
		}
		if len(f.Join) > 0 && cfg.Elastic == nil {
			panic("dist: FaultPlan.Join requires Config.Elastic (joins are membership surgery)")
		}
		for w, s := range f.Join {
			if w == 0 {
				panic("dist: FaultPlan.Join cannot mark worker 0 (the master joins at construction)")
			}
			if w < 0 || w >= len(replicas) {
				panic(fmt.Sprintf("dist: FaultPlan.Join marks worker %d, engine has %d replicas", w, len(replicas)))
			}
			if s < 1 {
				panic(fmt.Sprintf("dist: FaultPlan.Join[%d] = %d: a join before step 1 is initial membership", w, s))
			}
			if d, ok := f.Dead[w]; ok && d == s {
				panic(fmt.Sprintf("dist: FaultPlan marks worker %d both dead and joining at step %d", w, s))
			}
		}
	}
	e := &Engine{
		cfg:         cfg,
		replicas:    replicas,
		params:      make([][]*nn.Param, len(replicas)),
		done:        make(chan error, len(replicas)),
		grads:       make([][]float32, cfg.Shards),
		losses:      make([]float64, cfg.Shards),
		evalOK:      make([]int, len(replicas)),
		alive:       make([]bool, len(replicas)),
		started:     make([]bool, len(replicas)),
		joinDone:    make([]bool, len(replicas)),
		consecDead:  make([]int, len(replicas)),
		shards:      cfg.Shards,
		shardsTrack: trackWorld,
		steps:       cfg.StartStep,
	}
	if cfg.Profile {
		kernel.SetProfiling(true)
	}
	// A worker the fault plan schedules to join later (and that is not a
	// returning initial member) starts outside the collective: not alive,
	// no goroutine, no hierarchy-node seat. admitJoins brings it in at its
	// step boundary.
	for w := range e.alive {
		e.alive[w] = true
		if f := cfg.Faults; f != nil {
			if !f.initialMember(w) && f.Join[w] > cfg.StartStep {
				e.alive[w] = false
			}
			if s, ok := f.Join[w]; ok && s <= cfg.StartStep {
				// A resumed run's past joins are already in effect; they
				// must not re-fire as admissions.
				e.joinDone[w] = true
			}
		}
		if e.alive[w] {
			e.world++
		}
	}
	if trackWorld {
		// The default split tracks the live world in both directions, so
		// an engine born with pending joiners shards like the fresh
		// smaller engine it is bit-identical to.
		e.shards = e.world
	}
	e.total.membership.StepsAtWorld = make([]int64, len(replicas)+1)
	if h := cfg.Topology; h != nil {
		e.nodes = make([][]int, h.Nodes)
		for n := range e.nodes {
			for i := 0; i < h.PerNode; i++ {
				if w := n*h.PerNode + i; e.alive[w] {
					e.nodes[n] = append(e.nodes[n], w)
				}
			}
		}
	}
	for w, r := range replicas {
		e.params[w] = r.Params()
		if len(e.params[w]) != len(e.params[0]) {
			panic(fmt.Sprintf("dist: replica %d has %d params, master has %d", w, len(e.params[w]), len(e.params[0])))
		}
	}
	for _, p := range e.params[0] {
		e.nparams += p.Numel()
	}
	e.buckets = BucketRanges(e.nparams, cfg.BucketElems)
	for s := range e.grads {
		e.grads[s] = make([]float32, e.nparams)
	}
	e.reduced = make([]float32, e.nparams)
	if cfg.Overlap {
		e.mapBuckets()
		e.curSlot = make([]int, len(replicas))
		e.remaining = make([]atomic.Int64, len(e.buckets))
		for w := range replicas {
			w := w
			replicas[w].SetGradNotify(func(param int) { e.gradReady(w, param) })
		}
	}

	e.jobs = make([]chan job, len(replicas))
	for w := range replicas {
		if e.alive[w] {
			e.startWorker(w)
		}
	}
	if err := e.BroadcastWeights(); err != nil {
		panic(err) // replicas were just validated to share the architecture
	}
	e.profActive = true // the profile covers training steps, not construction
	return e
}

// BucketRanges splits [0, n) into chunks of at most elems coordinates — the
// bucket layout the engine reduces (and, under Config.Overlap, the
// granularity at which reductions hide inside the backward pass).
func BucketRanges(n, elems int) [][2]int {
	if elems <= 0 || elems >= n {
		if n == 0 {
			return nil
		}
		return [][2]int{{0, n}}
	}
	var out [][2]int
	for lo := 0; lo < n; lo += elems {
		hi := lo + elems
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// mapBuckets builds the bucket/parameter cover maps the overlap scheduler
// and the hidden/exposed classification use: which buckets each parameter's
// coordinates fall into, how many parameters cover each bucket, and which
// buckets become ready strictly before the backward pass ends. A bucket is
// ready when its lowest-indexed covering parameter lands; since parameters
// land in reverse order, only buckets covering parameter 0 wait for the very
// end of the backward — every other bucket is overlap-eligible (hidden).
func (e *Engine) mapBuckets() {
	e.paramOffs = make([]int, len(e.params[0])+1)
	for i, p := range e.params[0] {
		e.paramOffs[i+1] = e.paramOffs[i] + p.Numel()
	}
	e.paramBuckets = make([][]int, len(e.params[0]))
	e.coverCount = make([]int, len(e.buckets))
	e.bucketHidden = make([]bool, len(e.buckets))
	cursor := 0 // buckets and parameters are both coordinate-sorted
	for bi, b := range e.buckets {
		first := -1
		for pi := cursor; pi < len(e.params[0]); pi++ {
			plo, phi := e.paramOffs[pi], e.paramOffs[pi+1]
			if plo >= b[1] {
				break
			}
			if phi <= b[0] || plo == phi {
				continue
			}
			e.paramBuckets[pi] = append(e.paramBuckets[pi], bi)
			e.coverCount[bi]++
			if first < 0 {
				first = pi
			}
		}
		if first >= 0 {
			cursor = first
		}
		e.bucketHidden[bi] = first > 0
	}
}

// gradReady is the per-parameter notification nn.Network.Backward fires on
// worker w: it copies the now-final parameter gradient of the shard the
// worker is back-propagating into the flat shard gradient, and hands every
// bucket whose last covering (shard, parameter) pair just landed to the
// overlap scheduler. The atomic countdown plus the buffered channel give the
// scheduler a happens-before edge over all shard writes it will read.
func (e *Engine) gradReady(w, pi int) {
	slot := e.curSlot[w]
	off := e.paramOffs[pi]
	copy(e.grads[slot][off:e.paramOffs[pi+1]], e.params[w][pi].G.Data)
	for _, bi := range e.paramBuckets[pi] {
		if e.remaining[bi].Add(-1) == 0 {
			e.readyCh <- bi
		}
	}
}

// Workers returns the physical worker (replica) count.
func (e *Engine) Workers() int { return len(e.replicas) }

// Master returns the master replica, whose parameters the optimizer steps.
func (e *Engine) Master() *nn.Network { return e.replicas[0] }

// Steps returns the number of gradient reductions performed.
func (e *Engine) Steps() int64 { return e.steps }

// Stats returns the cumulative communication counters.
func (e *Engine) Stats() CommStats { return e.total.comm }

// StepStats returns the counters of the most recent training step
// (ComputeGradient plus any BroadcastWeights since).
func (e *Engine) StepStats() CommStats { return e.last.comm }

// TierStats returns the cumulative counters split by fabric tier. It is
// zero unless Config.Topology arranged the workers hierarchically, in which
// case TierStats().Total() equals Stats().
func (e *Engine) TierStats() TierStats { return e.total.tiers }

// StepTierStats returns the per-tier counters of the most recent training
// step, the hierarchical split of StepStats.
func (e *Engine) StepTierStats() TierStats { return e.last.tiers }

// OverlapStats returns the cumulative hidden/exposed split of the counters:
// OverlapStats().Rounds() == Stats().Steps and OverlapStats().TotalBytes()
// == Stats().Bytes always. Nothing is hidden unless Config.Overlap is set.
func (e *Engine) OverlapStats() OverlapStats { return e.total.overlap }

// StepOverlapStats returns the hidden/exposed split of the most recent
// training step, the overlap view of StepStats.
func (e *Engine) StepOverlapStats() OverlapStats { return e.last.overlap }

// Profile returns the cumulative phase profile: hot-loop wall time split
// into gemm/im2col/reduce/codec/other buckets that sum exactly to the
// measured wall time. Zero unless Config.Profile is set.
func (e *Engine) Profile() ProfileStats { return e.total.profile }

// StepProfile returns the phase profile of the most recent training step
// (ComputeGradient plus any BroadcastWeights since), the profiled view of
// StepStats.
func (e *Engine) StepProfile() ProfileStats { return e.last.profile }

// Close shuts down the worker goroutines. The engine must not be used
// afterwards; Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.cfg.Profile {
		kernel.SetProfiling(false)
	}
	for w, ch := range e.jobs {
		// Evicted workers' channels are already closed; pending joiners
		// that never joined have no goroutine (and no channel) at all.
		if e.started[w] {
			close(ch)
		}
	}
	e.wg.Wait()
	if e.cfg.Overlap {
		// Unhook the gradient notifications so the replicas can be used
		// (or rewrapped in a new engine) after shutdown.
		for _, r := range e.replicas {
			r.SetGradNotify(nil)
		}
	}
}

// record accounts one schedule into the comm and overlap counters; hidden
// files the schedule's rounds and bytes under the hidden side of the
// overlap split.
func (e *Engine) record(s CommStats, hidden bool) {
	e.file(func(l *ledger) {
		l.comm.Add(s)
		l.overlap.add(s, hidden)
	})
}

// recordTiers accounts a per-tier schedule into the tier counters and its
// aggregate into the flat counters, keeping Stats() == TierStats().Total()
// for hierarchical runs.
func (e *Engine) recordTiers(t TierStats, hidden bool) {
	e.file(func(l *ledger) { l.tiers.Add(t) })
	e.record(t.Total(), hidden)
}

// recordReduce accounts one gradient-reduction schedule of a bucket, per
// tier when the engine is hierarchical. wireTotal is the summed wire bytes
// of the bucket across all live shards and shards their count: the
// schedule's byte totals are the schedule factor times the mean shard
// payload, computed multiply-first/divide-last so non-uniform codec payloads
// are accounted exactly (to the byte) instead of through a truncated
// per-shard mean.
func (e *Engine) recordReduce(wireTotal int64, shards int, hidden bool) {
	n := int64(shards)
	if h := e.cfg.Topology; h != nil {
		sizes := e.nodeSizes()
		t := degradedHierReduceSchedule(*h, sizes, 0)
		t.Intra.Bytes = degradedIntraBytesFactor(*h, sizes) * wireTotal / n
		t.Inter.Bytes = reduceBytesFactor(h.Inter, len(sizes)) * wireTotal / n
		e.recordTiers(t, hidden)
		return
	}
	st := reduceSchedule(e.cfg.Algo, e.world, 0)
	st.Bytes = reduceBytesFactor(e.cfg.Algo, e.world) * wireTotal / n
	e.record(st, hidden)
}

// recordBroadcast accounts one weight-broadcast schedule of a payloadBytes
// bucket, per tier when the engine is hierarchical. Broadcasts run after the
// optimizer step, so they are always exposed.
func (e *Engine) recordBroadcast(payloadBytes int64) {
	if h := e.cfg.Topology; h != nil {
		e.recordTiers(degradedHierBroadcastSchedule(*h, e.nodeSizes(), payloadBytes), false)
		return
	}
	e.record(broadcastSchedule(e.cfg.Algo, e.world, payloadBytes), false)
}

// startWorker gives worker w a fresh job channel and a goroutine draining
// it — at construction for the initial members, and again when an evicted
// (or never-started) worker joins the collective. The old goroutine, if
// any, exited when its channel was closed by evict; the channel is handed
// to the goroutine rather than read back from e.jobs, which a rejoin
// overwrites while the old goroutine may still be draining.
func (e *Engine) startWorker(w int) {
	e.jobs[w] = make(chan job)
	e.started[w] = true
	e.wg.Add(1)
	go e.worker(w, e.jobs[w])
}

// worker is the lockstep loop of one persistent worker goroutine.
func (e *Engine) worker(w int, jobs <-chan job) {
	defer e.wg.Done()
	net := e.replicas[w]
	loss := &nn.SoftmaxCrossEntropy{}
	for j := range jobs {
		e.done <- e.run(w, net, loss, j)
	}
}

// run executes one job, converting panics anywhere below (shape drift, bad
// labels) into errors so a worker failure aborts the step instead of
// crashing the process.
func (e *Engine) run(w int, net *nn.Network, loss *nn.SoftmaxCrossEntropy, j job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: worker %d: %v", w, r)
		}
	}()
	switch j.kind {
	case jobGrad, jobLocal:
		for _, slot := range j.slots {
			lo, hi := j.spans[slot][0], j.spans[slot][1]
			if lo == hi {
				continue
			}
			x, labels := sliceRows(j.x, j.labels, lo, hi)
			net.ZeroGrad()
			out := net.Forward(x, true)
			e.losses[slot] = loss.Forward(out, labels)
			dl := loss.Backward()
			if s := e.lossScale; s != 0 && s != 1 {
				// Mixed-precision loss scaling: lift the seed gradient so
				// small values survive binary16 storage downstream. The
				// trainer unscales after reduction.
				for i := range dl.Data {
					dl.Data[i] *= s
				}
			}
			if e.cfg.Overlap {
				// gradReady flattens per parameter as Backward lands
				// them, feeding the overlap scheduler (a local step has
				// no bucket countdown to satisfy; it uses the flattening
				// only).
				e.curSlot[w] = slot
				net.Backward(dl)
			} else {
				net.Backward(dl)
				flatten(e.params[w], grad, e.grads[slot])
			}
		}
		if j.kind == jobLocal {
			// Local SGD (Config.SyncEvery): the gradient stays on the
			// worker, which steps its own optimizer on it.
			e.localReduceStep(w, j)
		}
	case jobEval:
		correct := 0
		for _, slot := range j.slots {
			lo, hi := j.spans[slot][0], j.spans[slot][1]
			if lo == hi {
				continue
			}
			x, labels := sliceRows(j.x, j.labels, lo, hi)
			preds := net.Forward(x, false).ArgMaxRows()
			for i, p := range preds {
				if p == labels[i] {
					correct++
				}
			}
		}
		e.evalOK[w] = correct
	case jobSync:
		if w != 0 {
			net.CopyWeightsFrom(e.replicas[0])
		}
	}
	return nil
}

// sliceRows returns an aliasing view of rows [lo, hi) of a batch tensor and
// its labels.
func sliceRows(x *tensor.Tensor, labels []int, lo, hi int) (*tensor.Tensor, []int) {
	rowLen := x.Numel() / x.Shape[0]
	shape := append([]int{hi - lo}, x.Shape[1:]...)
	return tensor.FromSlice(x.Data[lo*rowLen:hi*rowLen], shape...), labels[lo:hi]
}

// grad and weight select which tensor of a parameter flatten and scatter
// move.
func grad(p *nn.Param) []float32   { return p.G.Data }
func weight(p *nn.Param) []float32 { return p.W.Data }

// flatten copies one tensor of every parameter into one flat vector.
func flatten(params []*nn.Param, of func(*nn.Param) []float32, dst []float32) {
	off := 0
	for _, p := range params {
		off += copy(dst[off:], of(p))
	}
}

// scatter copies a flat vector back into one tensor of every parameter, the
// inverse of flatten.
func scatter(src []float32, params []*nn.Param, of func(*nn.Param) []float32) {
	off := 0
	for _, p := range params {
		off += copy(of(p), src[off:])
	}
}

// dispatch sends one job to each of the given workers and waits for the
// lockstep barrier, returning the first worker error. Evicted and
// currently-dead workers are simply not in the list — the barrier only
// waits on workers that can answer.
func (e *Engine) dispatch(workers []int, mk func(w int) job) error {
	if e.closed {
		panic("dist: engine used after Close")
	}
	for _, w := range workers {
		e.jobs[w] <- mk(w)
	}
	var first error
	for range workers {
		if err := <-e.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runStep is the skeleton both trainer-facing steps share. It checks the
// batch, surfaces a dead worker, opens a fresh per-step ledger, admits the
// joiners the fault plan schedules (when admit is set — the step opens a
// membership epoch), splits the batch into the engine's logical shards, and
// runs body inside the step's profile window: body gets the shard spans, the
// non-empty (live) shards with their batch-mean weights, and the workers
// that can answer this step. It then files the step under the world size it
// ran at, evicts the workers whose recovery failed too often (when evict is
// set — the step closes a membership epoch), and returns the batch-mean
// loss.
func (e *Engine) runStep(op string, x *tensor.Tensor, labels []int, admit, evict bool,
	body func(spans [][2]int, live []int, weights []float64, active []int) error) (float64, error) {
	b := x.Shape[0]
	if b == 0 {
		panic(fmt.Sprintf("dist: %s on an empty batch", op))
	}
	if len(labels) != b {
		panic(fmt.Sprintf("dist: %d labels for batch of %d", len(labels), b))
	}
	if err := e.checkDead(e.steps); err != nil {
		return 0, err
	}
	e.last = ledger{membership: MembershipStats{StepsAtWorld: make([]int64, len(e.replicas)+1)}}
	// Membership epoch boundary (join half): workers the plan schedules to
	// join enter before the batch is sharded, so the step itself runs — and
	// is accounted — at the grown world size, warm-started from the
	// admission broadcast.
	if admit {
		if err := e.admitJoins(); err != nil {
			return 0, err
		}
	}
	spans := data.Spans(b, e.shards)
	all := make([]int, len(spans))
	for s := range all {
		all[s] = s
	}
	live, weights := shardWeights(spans, all)
	// The shard slots rebalance over the workers that can answer this step:
	// the live fleet minus any worker the fault plan holds permanently dead
	// (its shards are recomputed by survivors, the failed recovery
	// injectFaults accounts).
	active := e.activeIDs(e.steps)
	if err := e.profiled(func() error { return body(spans, live, weights, active) }); err != nil {
		return 0, err
	}
	world := e.world // the step is filed at the world size it executed at
	e.file(func(l *ledger) { l.membership.StepsAtWorld[world]++ })
	e.steps++
	// Membership epoch boundary (eviction half): evict workers whose
	// recovery has failed Elastic.EvictAfter consecutive steps, rebalance,
	// resynchronize.
	if evict {
		if err := e.evictDead(); err != nil {
			return 0, err
		}
	}
	var loss float64
	for i, s := range live {
		loss += weights[i] * e.losses[s]
	}
	return loss, nil
}

// shardWeights returns the non-empty shards among slots and each one's share
// of the rows they hold together: the sample weights of a reduction over
// those shards.
func shardWeights(spans [][2]int, slots []int) (live []int, weights []float64) {
	rows := 0
	for _, s := range slots {
		if n := spans[s][1] - spans[s][0]; n > 0 {
			rows += n
			live = append(live, s)
		}
	}
	for _, s := range live {
		weights = append(weights, float64(spans[s][1]-spans[s][0])/float64(rows))
	}
	return live, weights
}

// dispatchShards sends every active worker the shard slots it owns of the
// batch job j and waits for the lockstep barrier.
func (e *Engine) dispatchShards(j job, active []int) error {
	slots := e.slotOwners(active)
	return e.dispatch(active, func(w int) job {
		j.slots = slots[w]
		return j
	})
}

// profiled runs body as one profile window and files its phase split into
// the ledger (Config.Profile only). A window opened inside another — the
// weight broadcast that closes a local-SGD window — folds into the outer
// one, so no instant is filed twice.
func (e *Engine) profiled(body func() error) error {
	if !e.cfg.Profile || !e.profActive || e.profiling {
		return body()
	}
	e.profiling = true
	base, start := kernel.ProfileSnapshot()
	err := body()
	e.profiling = false
	if err != nil {
		return err
	}
	d := profileDelta(base, start)
	e.file(func(l *ledger) { l.profile.Add(d) })
	return nil
}

// ComputeGradient splits the global batch x ([B, ...] with len(labels) == B)
// into the engine's logical shards, runs forward/backward on every shard
// across the worker replicas in lockstep, and allreduces the shard
// gradients — weighted by shard size, canonically ordered — into the master
// replica's parameter gradients. Under Config.Overlap each bucket's
// reduction fires the moment the gradients it covers are final on every
// shard, concurrently with the still-running backward pass; otherwise all
// buckets reduce after the barrier. Either way the reduced values are
// bit-identical. It returns the batch-mean loss. The replicas must hold
// identical weights (NewEngine and BroadcastWeights guarantee this in the
// standard loop).
func (e *Engine) ComputeGradient(x *tensor.Tensor, labels []int) (float64, error) {
	return e.runStep("ComputeGradient", x, labels, true, true, func(spans [][2]int, live []int, weights []float64, active []int) error {
		srcs := make([][]float32, len(live))
		for i, s := range live {
			srcs[i] = e.grads[s]
		}
		payloads := make([]int64, len(e.buckets))
		reduce := func(bi int, hidden bool) {
			payloads[bi] = e.reduceBucket(bi, live, srcs, weights, hidden)
		}
		shardJob := job{kind: jobGrad, x: x, labels: labels, spans: spans}
		if e.cfg.Overlap && len(e.buckets) > 0 && len(live) > 0 {
			for bi := range e.buckets {
				e.remaining[bi].Store(int64(e.coverCount[bi]) * int64(len(live)))
			}
			// The scheduler records schedules for buckets that fire before
			// a worker failure surfaces; snapshot the ledgers so a failed
			// step accounts nothing, matching the sequential path. (A
			// data-dependent codec's error-feedback state may still have
			// advanced for those buckets — the aborted step's values are
			// discarded either way.)
			total, last := e.total, e.last
			// Buffered to the bucket count so gradReady never blocks a
			// worker, even when the scheduler lags or a step aborts.
			e.readyCh = make(chan int, len(e.buckets))
			abort := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for n := 0; n < len(e.buckets); n++ {
					select {
					case bi := <-e.readyCh:
						reduce(bi, e.bucketHidden[bi])
					case <-abort:
						return
					}
				}
			}()
			if err := e.dispatchShards(shardJob, active); err != nil {
				// A failed worker leaves bucket countdowns unresolved; the
				// scheduler would wait forever without the abort.
				close(abort)
				<-done
				e.total, e.last = total, last
				return err
			}
			<-done
		} else {
			if err := e.dispatchShards(shardJob, active); err != nil {
				return err
			}
			for bi := range e.buckets {
				reduce(bi, false)
			}
		}
		scatter(e.reduced, e.params[0], grad)
		e.injectFaults(payloads)
		return nil
	})
}

// reduceBucket reduces one bucket of the source vectors into e.reduced —
// shard gradients on the gradient path, flattened worker weights on the
// local-SGD averaging path: the optional codec rounds every source's payload
// through its wire format (keys name the sources' codec slots), the
// schedule of the configured topology is accounted (hidden when the overlap
// scheduler fired the bucket inside the backward pass), and the weighted
// sum — canonical float64 or fixed-tree pairwise float32, per
// Config.Reduction — lands in the scratch vector. It returns the rounded
// mean wire payload so fault recovery prices resends consistently. Safe to
// run concurrently with workers still back-propagating other buckets'
// coordinates: it only touches [lo, hi).
func (e *Engine) reduceBucket(bi int, keys []int, srcs [][]float32, weights []float64, hidden bool) int64 {
	lo, hi := e.buckets[bi][0], e.buckets[bi][1]
	wireTotal := e.encode(bi, keys, srcs)
	e.recordReduce(wireTotal, len(srcs), hidden)
	sp := kernel.StartPhase(kernel.PhaseReduce)
	rows := make([][]float32, len(srcs))
	for i, src := range srcs {
		rows[i] = src[lo:hi]
	}
	e.accumulate(e.reduced[lo:hi], rows, weights)
	sp.End()
	n := int64(len(srcs))
	return (wireTotal + n/2) / n
}

// encode rounds one bucket of every source through the codec's wire format
// in place and returns the summed wire bytes (the raw float32 bytes when no
// codec is set). Source i owns codec slot keys[i]·buckets + bi — keys are
// shard indices on the gradient path and worker indices on the averaging
// path — so stateful codecs (1-bit error feedback) carry one residual per
// source and bucket. Per-payload wire sizes may differ for data-dependent
// codecs; the schedule formulas price one uniform payload, so the exact sum
// is accounted through the schedule's byte factor (see recordReduce).
func (e *Engine) encode(bi int, keys []int, srcs [][]float32) int64 {
	lo, hi := e.buckets[bi][0], e.buckets[bi][1]
	if e.cfg.Codec == nil {
		return 4 * int64(hi-lo) * int64(len(srcs))
	}
	sp := kernel.StartPhase(kernel.PhaseCodec)
	defer sp.End()
	wires := make([]int64, len(srcs))
	tasks := make([]func(), len(srcs))
	for i, src := range srcs {
		slot, seg := keys[i]*len(e.buckets)+bi, src[lo:hi]
		tasks[i] = func() { wires[i] = e.cfg.Codec.Transform(slot, seg) }
	}
	par.Do(tasks...)
	var total int64
	for _, w := range wires {
		total += w
	}
	return total
}

// accumulate writes the weighted sum of the sources into dst under the
// configured reduction arithmetic, split into parallel chunks. Both kernels
// are chunking-invariant, so the split never affects the reduced bits.
func (e *Engine) accumulate(dst []float32, srcs [][]float32, weights []float64) {
	var weights32 []float32
	if e.cfg.Reduction == PairwiseF32 {
		weights32 = make([]float32, len(weights))
		for i, w := range weights {
			weights32[i] = float32(w)
		}
	}
	par.ForGrain(len(dst), 2048, func(l, h int) {
		sub := make([][]float32, len(srcs))
		for i, src := range srcs {
			sub[i] = src[l:h]
		}
		if weights32 != nil {
			kernel.PairwiseAccumulate(dst[l:h], sub, weights32)
		} else {
			kernel.CanonicalAccumulate(dst[l:h], sub, weights)
		}
	})
}

// injectFaults rolls the fault plan for the current step and accounts the
// recovery traffic: a dropped worker payload is re-requested and resent
// (Retries plus that worker's sender share of every bucket), a straggler
// holds the barrier for one round (Stalls). A permanently dead worker's
// step is a failed recovery: a survivor recomputes its shards, the resend
// is accounted the same way, and the worker's consecutive-failure counter
// advances toward Elastic.EvictAfter instead of resetting. Under a
// hierarchical topology the recovery traffic lands on the tier the worker
// sends on — intra for node members, inter for the surviving node leaders.
// Recovery happens at the step barrier, so it is always exposed. Values are
// never affected — recovery is exact, which is what keeps faulty runs
// bit-identical to clean ones.
func (e *Engine) injectFaults(payloads []int64) {
	f := e.cfg.Faults
	if !f.enabled() || e.world == 1 {
		return
	}
	h := e.cfg.Topology
	accountDrop := func(w int) {
		if h != nil {
			leader, nodeSize, liveNodes := e.nodeRole(w)
			var t TierStats
			for _, payload := range payloads {
				t.Add(degradedSenderShare(*h, leader, nodeSize, liveNodes, payload))
			}
			if leader {
				t.Inter.Retries = 1
			} else {
				t.Intra.Retries = 1
			}
			e.recordTiers(t, false)
			return
		}
		var st CommStats
		st.Retries = 1
		for _, payload := range payloads {
			msgs, bytes := senderShare(e.cfg.Algo, e.world, payload)
			st.Messages += msgs
			st.Bytes += bytes
		}
		e.record(st, false)
	}
	for _, w := range e.liveIDs() {
		if f.deadAt(e.steps, w) {
			// Failed recovery: the re-request goes unanswered and a
			// survivor recomputes and resends the dead worker's shards.
			e.consecDead[w]++
			accountDrop(w)
			continue
		}
		e.consecDead[w] = 0
		drop, stall := f.roll(e.steps, w)
		if drop {
			accountDrop(w)
		}
		if stall {
			if h != nil {
				var t TierStats
				if leader, _, _ := e.nodeRole(w); leader {
					t.Inter.Stalls = 1
				} else {
					t.Intra.Stalls = 1
				}
				e.recordTiers(t, false)
			} else {
				e.record(CommStats{Stalls: 1}, false)
			}
		}
	}
}

// BroadcastWeights resynchronizes every replica's parameters from the
// master — the weight-distribution phase following the optimizer step —
// and accounts the broadcast schedule per bucket. A worker failure
// (architecture drift between replicas) is returned so the training loop
// can abort the step cleanly instead of crashing the process.
func (e *Engine) BroadcastWeights() error {
	return e.profiled(func() error {
		if err := e.dispatch(e.activeIDs(e.steps), func(int) job { return job{kind: jobSync} }); err != nil {
			return err
		}
		for _, bucket := range e.buckets {
			e.recordBroadcast(4 * int64(bucket[1]-bucket[0]))
		}
		return nil
	})
}

// EvalAccuracy computes top-1 accuracy of the master weights over the
// images, processed data-parallel in chunks of at most batch rows assigned
// round-robin to the workers. The replicas must be weight-synchronized, so
// every chunk's logits are identical whichever replica computes them. Under
// local SGD (Config.SyncEvery > 1) the replicas legitimately disagree
// between sync boundaries, so evaluation pins one replica — the
// lowest-numbered active worker — which keeps the metric well-defined and
// deterministic at any point in the window. A worker failure (bad labels,
// shape drift) is returned as an error.
func (e *Engine) EvalAccuracy(images *tensor.Tensor, labels []int, batch int) (float64, error) {
	n := images.Shape[0]
	if n == 0 {
		return 0, nil
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	var spans [][2]int
	for lo := 0; lo < n; lo += batch {
		spans = append(spans, [2]int{lo, min(lo+batch, n)})
	}
	active := e.activeIDs(e.steps)
	if e.cfg.SyncEvery > 1 {
		active = active[:1]
	}
	slots := make([][]int, len(e.replicas))
	for i := range spans {
		w := active[i%len(active)]
		slots[w] = append(slots[w], i)
	}
	if err := e.dispatch(active, func(w int) job {
		return job{kind: jobEval, x: images, labels: labels, spans: spans, slots: slots[w]}
	}); err != nil {
		return 0, err
	}
	correct := 0
	for _, w := range active {
		correct += e.evalOK[w]
	}
	return float64(correct) / float64(n), nil
}
