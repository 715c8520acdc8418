package cluster

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// Local-SGD pricing: the communication-for-computation tradeoff of
// dist.Config.SyncEvery, priced on the same machine/fabric model Simulate
// uses for the every-step path. Workers step locally and synchronize
// weights every H steps, so the per-iteration communication term is
// amortized by 1/H while the compute term is unchanged; hierarchical
// clusters can additionally average inside each node every Hi steps,
// priced on the intra fabric alone. Sync rounds are barriers — nothing
// overlaps with the backward pass — so the Overlap fields of the cluster
// are ignored here and every communication second is exposed.

// LocalSGDEstimate is the priced outcome of one local-SGD training run.
type LocalSGDEstimate struct {
	Cluster Cluster
	Model   string
	Batch   int
	Epochs  int

	// SyncEvery is H: local optimizer steps per full weight-averaging
	// round. IntraSyncEvery is the optional intra-node period Hi
	// (0 disables the intermediate tier).
	SyncEvery      int
	IntraSyncEvery int

	Iterations int64
	// SyncRounds and IntraRounds are the closed-form round counts the
	// engine's LocalSGDStats reports for the same run length.
	SyncRounds  int64
	IntraRounds int64

	LocalBatch int
	MicroBatch int
	OOM        bool

	CompSec  float64 // per-step computation, same model as Simulate
	SyncSec  float64 // one full weight-averaging round, all tiers
	IntraSec float64 // one intra-node-only round (0 unless IntraSyncEvery)
	// StepSec is the amortized wall time per local step:
	// CompSec + SyncSec/H + IntraSec·(intra rounds per step).
	StepSec   float64
	TotalSec  float64
	ImagesSec float64

	// Comm is the whole-run closed-form communication schedule —
	// floor(Iterations/H) full rounds (plus intra rounds for
	// hierarchical clusters), exactly what a dist engine driven through
	// LocalStep records. For hierarchical clusters it is TierComm.Total().
	Comm dist.CommStats
	// TierComm splits Comm by fabric tier for hierarchical clusters.
	TierComm dist.TierStats

	// Speedup is ImagesSec relative to the same cluster at H=1 (the
	// every-step baseline); 1 at H=1 by construction.
	Speedup float64
}

// Duration returns the total time as a time.Duration.
func (e LocalSGDEstimate) Duration() time.Duration {
	return time.Duration(e.TotalSec * float64(time.Second))
}

// String renders a compact sweep row.
func (e LocalSGDEstimate) String() string {
	if e.OOM {
		return fmt.Sprintf("%s B=%d H=%d on %dx %s: OOM", e.Model, e.Batch, e.SyncEvery, e.Cluster.Count, e.Cluster.Machine.Name)
	}
	return fmt.Sprintf("%s B=%d H=%d on %dx %s: %s (%.0f img/s, %.2fx, comm %.1f GB)",
		e.Model, e.Batch, e.SyncEvery, e.Cluster.Count, e.Cluster.Machine.Name,
		formatDuration(e.TotalSec), e.ImagesSec, e.Speedup, float64(e.Comm.Bytes)/(1<<30))
}

// SimulateLocalSGD prices one fixed-epoch local-SGD run of spec on c:
// syncEvery local steps between full weight averages, optionally an
// intra-node average every intraSyncEvery steps on hierarchical clusters.
// syncEvery = 1 (with intraSyncEvery = 0) reproduces the non-overlapped
// every-step Estimate exactly — same compute model, same per-round
// schedule, communication amortized by 1/1.
func SimulateLocalSGD(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize, syncEvery, intraSyncEvery int) LocalSGDEstimate {
	if c.Count <= 0 || batch <= 0 || epochs <= 0 || datasetSize <= 0 {
		panic("cluster: invalid simulation parameters")
	}
	if syncEvery < 1 {
		panic("cluster: SimulateLocalSGD requires syncEvery >= 1")
	}
	if intraSyncEvery < 0 || (intraSyncEvery > 0 && syncEvery%intraSyncEvery != 0) {
		panic("cluster: intraSyncEvery must divide syncEvery")
	}
	e := LocalSGDEstimate{
		Cluster: c, Model: spec.Name, Batch: batch, Epochs: epochs,
		SyncEvery: syncEvery, IntraSyncEvery: intraSyncEvery,
		Iterations: comm.Iterations(epochs, datasetSize, batch),
	}
	h, hier := c.Hierarchy()
	if intraSyncEvery > 0 && !hier {
		panic("cluster: intraSyncEvery requires a hierarchical cluster (PerNode > 1)")
	}
	e.SyncRounds = comm.LocalSGDSyncRounds(e.Iterations, syncEvery)
	e.IntraRounds = comm.LocalSGDIntraRounds(e.Iterations, syncEvery, intraSyncEvery)

	e.LocalBatch, e.MicroBatch, e.CompSec, e.SyncSec = iterCost(c, spec, batch, c.Count)
	if e.MicroBatch == 0 {
		e.OOM = true
		return e
	}

	nelems := int(spec.WeightBytes() / 4)
	if hier {
		e.TierComm = comm.ExpectedLocalSGDTierStats(h, syncEvery, intraSyncEvery, e.Iterations, nelems, 0, nil)
		e.Comm = e.TierComm.Total()
		if intraSyncEvery > 0 {
			e.IntraSec = c.IntraNetwork.AllreduceTime(c.IntraAlgo, h.PerNode, spec.WeightBytes())
		}
	} else {
		e.Comm = comm.ExpectedLocalSGDStats(c.Algo, c.Count, syncEvery, e.Iterations, nelems, 0, nil)
	}

	// Sync rounds are barriers: total time is every step's compute plus
	// every round's exposed communication, nothing hidden.
	e.TotalSec = float64(e.Iterations)*e.CompSec +
		float64(e.SyncRounds)*e.SyncSec + float64(e.IntraRounds)*e.IntraSec
	if e.Iterations > 0 {
		e.StepSec = e.TotalSec / float64(e.Iterations)
		e.ImagesSec = float64(batch) / e.StepSec
	}

	// Speedup against the every-step baseline on the same cluster: at
	// H=1 the amortized step is CompSec + SyncSec, the non-overlapped
	// synchronous iteration.
	base := e.CompSec + e.SyncSec
	if base > 0 && e.StepSec > 0 {
		e.Speedup = base / e.StepSec
	}
	return e
}

// LocalSGDCurve sweeps the synchronization period: one estimate per H in
// hs, no intermediate tier — the throughput-vs-H curve cmd/simulate and
// the commstudy example print.
func LocalSGDCurve(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int, hs []int) []LocalSGDEstimate {
	out := make([]LocalSGDEstimate, 0, len(hs))
	for _, h := range hs {
		out = append(out, SimulateLocalSGD(c, spec, batch, epochs, datasetSize, h, 0))
	}
	return out
}
