package dist

// Local SGD (Config.SyncEvery): workers run H local optimizer steps
// between collectives, then average *weights* — Codreanu et al.'s periodic
// parameter averaging, trading a 1/H cut in communication volume for the
// statistical cost of divergence between averages. The hierarchical
// variant (Config.IntraSyncEvery) layers frequent cheap intra-node
// averages under the rare full rounds, the natural extension of Hierarchy.
//
// The engine contract carries over unchanged: every averaging round's
// schedule is accounted into CommStats/TierStats (exposed — sync rounds
// are barriers, nothing hides inside a backward pass), codecs round the
// weight payloads through their wire format exactly as they round
// gradients, measured counters match comm.ExpectedLocalSGDStats
// counter-for-counter, and runs are deterministic at any H. Sync
// boundaries are the only legal membership-change points: joins admit at
// window starts, fault rolls (and hence the eviction clock) fire in sync
// rounds, and a window always closes at the world size it opened at.

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/tensor"
)

// Stepper is the optimizer-facing hook of a local-SGD worker: one Step per
// local gradient, advancing the worker's replica in place. opt.Optimizer
// satisfies it structurally — dist never imports the optimizer package,
// mirroring how the synchronous loop keeps the master optimizer outside
// the engine.
type Stepper interface {
	Step(lr float64)
}

// LocalSGDStats counts the local-SGD activity of an engine driven through
// LocalStep: local optimizer steps and the averaging rounds that
// synchronized them, per tier. The counters conserve steps exactly — for a
// fresh engine after S calls with period H,
//
//	LocalSteps = S
//	SyncRounds = floor(S/H)
//	IntraRounds = floor(S/Hi) − floor(S/H)   (Hi = IntraSyncEvery, else 0)
//
// so SyncRounds·H local steps are fully synchronized and S mod H ride in
// the still-open window.
type LocalSGDStats struct {
	// LocalSteps is the number of local optimizer steps executed (one per
	// LocalStep call; every active worker steps once per call).
	LocalSteps int64
	// SyncRounds is the number of full weight-averaging rounds: every
	// SyncEvery-th step all active workers average into the master, which
	// rebroadcasts the result.
	SyncRounds int64
	// IntraRounds is the number of intra-node-only averaging rounds:
	// every IntraSyncEvery-th step that is not also a full boundary, each
	// Topology node averages among its own members over the intra fabric.
	IntraRounds int64
}

// Add accumulates o into s.
func (s *LocalSGDStats) Add(o LocalSGDStats) {
	s.LocalSteps += o.LocalSteps
	s.SyncRounds += o.SyncRounds
	s.IntraRounds += o.IntraRounds
}

// LocalSGD returns the cumulative local-SGD counters. Zero unless the
// engine is driven through LocalStep.
func (e *Engine) LocalSGD() LocalSGDStats { return e.total.local }

// StepLocalSGD returns the local-SGD counters of the most recent
// LocalStep: one local step plus whatever averaging round closed it.
func (e *Engine) StepLocalSGD() LocalSGDStats { return e.last.local }

// SetLocalSteppers installs one local optimizer per replica — the workers
// step them inside LocalStep, each on its own replica's parameters. Must
// be called before the first LocalStep. Call it between steps only, like
// SetLossScale: the job channels provide the happens-before edge.
func (e *Engine) SetLocalSteppers(steppers []Stepper) {
	if len(steppers) != len(e.replicas) {
		panic(fmt.Sprintf("dist: %d local steppers for %d replicas (one per worker)", len(steppers), len(e.replicas)))
	}
	for w, s := range steppers {
		if s == nil {
			panic(fmt.Sprintf("dist: local stepper %d is nil", w))
		}
	}
	e.localSteppers = steppers
	if e.localBuf == nil {
		e.localBuf = make([][]float32, len(e.replicas))
		for w := range e.localBuf {
			e.localBuf[w] = make([]float32, e.nparams)
		}
	}
}

// LocalStep runs one local-SGD step: every active worker forward/backwards
// its shards of the global batch (exactly as ComputeGradient shards it),
// reduces the gradient over its own shards only, and steps its local
// optimizer at the given learning rate — no collective runs. At window
// boundaries the collectives fire: every SyncEvery-th step all active
// workers' weights are averaged (codec-rounded on the wire, uniformly
// weighted, canonical order) into the master and rebroadcast; every
// IntraSyncEvery-th step in between, each Topology node averages among its
// members on the intra fabric only. Fault rolls and membership changes
// happen at full boundaries exclusively — joins admit when a window opens,
// evictions close one — so a window always runs whole at one world size.
// It returns the batch-mean loss over all shards.
//
// With SyncEvery == 1 every step is a boundary: local SGD degenerates to
// per-step weight averaging, whose schedule (and therefore CommStats) is
// identical to the every-step gradient path's. SetLocalSteppers must have
// installed the local optimizers. An engine is driven through either
// LocalStep or ComputeGradient, never both: the two paths key codec slots
// differently (per worker here, per shard there).
func (e *Engine) LocalStep(x *tensor.Tensor, labels []int, lr float64) (float64, error) {
	h := int64(e.cfg.SyncEvery)
	if h < 1 {
		panic("dist: LocalStep needs Config.SyncEvery >= 1 (set the synchronization period)")
	}
	if e.localSteppers == nil {
		panic("dist: LocalStep before SetLocalSteppers (the workers have no local optimizers)")
	}
	// Sync boundaries are the only legal membership-change points: a window
	// start admits the joins the plan scheduled inside the previous window,
	// and only the step that closes a window can evict.
	done := e.steps + 1
	closes := done%h == 0
	return e.runStep("LocalStep", x, labels, e.steps%h == 0, closes, func(spans [][2]int, _ []int, _ []float64, active []int) error {
		if err := e.dispatchShards(job{kind: jobLocal, x: x, labels: labels, spans: spans, lr: lr}, active); err != nil {
			return err
		}
		e.file(func(l *ledger) { l.local.LocalSteps++ })
		if closes {
			return e.syncRound(active)
		}
		if hi := int64(e.cfg.IntraSyncEvery); hi > 0 && done%hi == 0 {
			e.intraSyncRound(active)
		}
		return nil
	})
}

// localReduceStep is the worker-side tail of a jobLocal: reduce the
// gradients of the worker's own shards — sample-weighted over the rows it
// computed, canonical slot order — into its replica's parameter gradients,
// then step its local optimizer. Runs on the worker goroutine; it touches
// only worker-owned state (its shards' gradients, its scratch, its
// replica, its stepper).
func (e *Engine) localReduceStep(w int, j job) {
	live, weights := shardWeights(j.spans, j.slots)
	if len(live) == 0 {
		return // no rows landed on this worker this step: nothing to step on
	}
	srcs := make([][]float32, len(live))
	for i, s := range live {
		srcs[i] = e.grads[s]
	}
	e.accumulate(e.localBuf[w], srcs, weights)
	scatter(e.localBuf[w], e.params[w], grad)
	e.localSteppers[w].Step(j.lr)
}

// flattenWeights copies every active worker's weights into its flat
// scratch and returns the scratch vectors in active order.
func (e *Engine) flattenWeights(active []int) [][]float32 {
	bufs := make([][]float32, len(active))
	for i, w := range active {
		flatten(e.params[w], weight, e.localBuf[w])
		bufs[i] = e.localBuf[w]
	}
	return bufs
}

// uniform returns n equal weights summing to one.
func uniform(n int) []float64 {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	return weights
}

// syncRound runs one full weight-averaging round over the active workers:
// every worker's flattened weights reduce bucket by bucket exactly like a
// gradient reduction — codec-rounded on the wire with slots keyed per
// worker, so stateful codecs carry per-worker residuals across rounds;
// uniformly weighted; canonical worker order — into the master, the fault
// plan rolls (the only point the eviction clock ticks in local mode), and
// the master rebroadcasts. All of it is exposed: a sync round is a barrier,
// there is no backward pass to hide inside.
func (e *Engine) syncRound(active []int) error {
	e.file(func(l *ledger) { l.local.SyncRounds++ })
	srcs := e.flattenWeights(active)
	weights := uniform(len(active))
	payloads := make([]int64, len(e.buckets))
	for bi := range e.buckets {
		payloads[bi] = e.reduceBucket(bi, active, srcs, weights, false)
	}
	scatter(e.reduced, e.params[0], weight)
	e.injectFaults(payloads)
	return e.BroadcastWeights()
}

// intraSyncRound runs one intra-node-only averaging round: each Topology
// node's active members average their weights among themselves over the
// intra fabric — leaders never exchange, so the inter tier stays silent.
// The schedule is the intra half of the two-tier round (reduce plus
// broadcast, priced at the live node sizes like every hierarchical
// schedule), accounted exposed on TierStats.Intra only.
func (e *Engine) intraSyncRound(active []int) {
	e.file(func(l *ledger) { l.local.IntraRounds++ })
	srcs := e.flattenWeights(active)
	h := e.cfg.Topology
	sizes := e.nodeSizes()
	n := int64(len(active))
	for bi, b := range e.buckets {
		wireTotal := e.encode(bi, active, srcs)
		r := degradedHierReduceSchedule(*h, sizes, 0)
		var t TierStats
		t.Intra = r.Intra
		t.Intra.Bytes = degradedIntraBytesFactor(*h, sizes) * wireTotal / n
		t.Intra.Add(degradedHierBroadcastSchedule(*h, sizes, 4*int64(b[1]-b[0])).Intra)
		e.recordTiers(t, false)
	}
	activeSet := make(map[int]bool, len(active))
	for _, w := range active {
		activeSet[w] = true
	}
	sp := kernel.StartPhase(kernel.PhaseReduce)
	for _, members := range e.nodes {
		var group [][]float32
		for _, m := range members {
			if activeSet[m] {
				group = append(group, e.localBuf[m])
			}
		}
		if len(group) == 0 {
			continue
		}
		e.accumulate(e.reduced, group, uniform(len(group)))
		for _, m := range members {
			if activeSet[m] {
				scatter(e.reduced, e.params[m], weight)
			}
		}
	}
	sp.End()
}
