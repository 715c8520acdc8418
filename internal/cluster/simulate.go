package cluster

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/models"
)

// Cluster is a homogeneous set of devices joined by one fabric — or, when
// PerNode groups them, by two: a fast intra-node fabric and the cluster
// fabric across nodes.
type Cluster struct {
	Machine Machine
	Count   int
	// Network is the cluster fabric: the only fabric when flat, the
	// inter-node (leader-exchange) fabric when PerNode > 1.
	Network comm.Network
	// Algo is the allreduce pattern on Network: the whole collective when
	// flat, the cross-node leader exchange when PerNode > 1.
	Algo dist.Algorithm
	// Overlap models communication/computation overlap (Das et al. 2016;
	// Goyal et al. 2017) at bucket granularity, mirroring the engine's
	// overlap scheduler (dist.Config.Overlap): the gradient is split into
	// OverlapBuckets near-equal buckets, each becomes ready at its share
	// of the backward pass (from the tail of the network forwards), and
	// the bucket allreduces pipeline against the remaining backward — for
	// hierarchical clusters with the inter exchange of bucket k
	// overlapping the intra reduce of bucket k+1 on the disjoint fabrics.
	// The exposed communication per iteration is what the pipeline cannot
	// hide (at minimum the first layers' bucket, which is only ready when
	// the backward ends); Estimate.Buckets reports the per-bucket
	// timeline.
	Overlap bool
	// OverlapBuckets is the number of gradient buckets the overlap model
	// pipelines; 0 defaults to DefaultOverlapBuckets. Ignored unless
	// Overlap is set.
	OverlapBuckets int

	// PerNode groups the devices into nodes of this size; > 1 prices the
	// allreduce hierarchically — IntraAlgo over IntraNetwork inside each
	// node feeding Algo over Network across the node leaders — matching
	// the two-tier schedule internal/dist executes. It must divide Count.
	// 0 or 1 keeps the flat single-fabric model.
	PerNode int
	// IntraNetwork is the within-node fabric (e.g. NVLink inside a
	// DGX-1) used when PerNode > 1.
	IntraNetwork comm.Network
	// IntraAlgo is the within-node allreduce pattern when PerNode > 1
	// (Ring is the usual choice on fast local fabrics).
	IntraAlgo dist.Algorithm
}

// DefaultOverlapBuckets is the bucket count the overlap model uses when
// Cluster.OverlapBuckets is zero — fine enough that the unhideable first
// bucket is a small fraction of the payload, coarse enough that per-bucket
// latency (the alpha terms) does not dominate.
const DefaultOverlapBuckets = 16

// backwardShare is the fraction of an iteration's compute spent in the
// backward pass — the window communication can hide in. Training costs
// roughly one forward plus two forward-equivalents of backward (weight and
// input gradients), hence 2/3; the old heuristic's t_comp/2 window was
// smaller, which is one of the two ways it overpriced exposure (the other:
// it ignored that the first layers' bucket can never hide).
const backwardShare = 2.0 / 3

// Hierarchy returns the two-tier layout the cluster prices and true when
// PerNode groups the devices (PerNode > 1); it panics if PerNode does not
// divide Count. Flat clusters return false.
func (c Cluster) Hierarchy() (dist.Hierarchy, bool) {
	if c.PerNode <= 1 {
		return dist.Hierarchy{}, false
	}
	if c.Count%c.PerNode != 0 {
		panic(fmt.Sprintf("cluster: %d devices do not fill nodes of %d", c.Count, c.PerNode))
	}
	return dist.Hierarchy{Nodes: c.Count / c.PerNode, PerNode: c.PerNode, Intra: c.IntraAlgo, Inter: c.Algo}, true
}

// Predefined clusters matching the paper's experiments.

// DGX1 is one NVIDIA DGX-1 station: 8 P100s on NVLink.
func DGX1() Cluster {
	return Cluster{Machine: TeslaP100, Count: 8, Network: NVLinkHybrid, Algo: dist.Ring}
}

// SingleDevice is a one-device "cluster" (no communication).
func SingleDevice(m Machine) Cluster {
	return Cluster{Machine: m, Count: 1, Network: OmniPath, Algo: dist.Ring}
}

// KNLCluster is n Stampede-2 KNL nodes on Omni-Path.
func KNLCluster(n int) Cluster {
	return Cluster{Machine: KNL7250, Count: n, Network: OmniPath, Algo: dist.Ring}
}

// CPUCluster is n Skylake nodes on Omni-Path.
func CPUCluster(n int) Cluster {
	return Cluster{Machine: Xeon8160, Count: n, Network: OmniPath, Algo: dist.Ring}
}

// P100Cluster is n P100 GPUs on FDR InfiniBand (Facebook's setup).
func P100Cluster(n int) Cluster {
	return Cluster{Machine: TeslaP100, Count: n, Network: comm.MellanoxFDR, Algo: dist.Ring}
}

// DGXPod is n DGX-1 stations priced hierarchically: a ring over the eight
// P100s on NVLink inside each chassis, a tree over the station leaders on
// FDR InfiniBand — the two-tier composition the paper's multi-node GPU
// systems (and Goyal et al.'s 32x DGX-1 setup) use.
func DGXPod(n int) Cluster {
	return Cluster{
		Machine: TeslaP100, Count: 8 * n, Network: comm.MellanoxFDR, Algo: dist.Tree,
		PerNode: 8, IntraNetwork: NVLinkHybrid, IntraAlgo: dist.Ring,
	}
}

// Estimate is the simulator's output for one training configuration.
type Estimate struct {
	Cluster    Cluster
	Model      string
	Batch      int
	Epochs     int
	Iterations int64
	LocalBatch int
	// MicroBatch is the per-device compute batch after memory-driven
	// micro-batching; equal to LocalBatch when everything fits.
	MicroBatch int
	// OOM marks configurations where even a single image does not fit.
	OOM       bool
	CompSec   float64 // per-iteration computation
	CommSec   float64 // per-iteration exposed communication
	TotalSec  float64
	ImagesSec float64 // sustained throughput
	// Comm is the closed-form schedule of one gradient allreduce under
	// the cluster's algorithm — the same counters internal/dist records
	// when executing the exchange for real. For hierarchical clusters it
	// is the aggregate across both tiers, TierComm.Total().
	Comm dist.CommStats
	// TierComm splits Comm by fabric tier for hierarchical clusters
	// (PerNode > 1): intra-node traffic priced on IntraNetwork, inter-node
	// on Network. Zero for flat clusters.
	TierComm dist.TierStats
	// BackwardSec is the backward-pass share of CompSec, the window the
	// overlap model hides communication in. Zero unless Overlap.
	BackwardSec float64
	// HiddenCommSec is the per-iteration communication hidden behind the
	// backward pass: the serial bucketed allreduce time minus the exposed
	// CommSec, never negative. Zero unless Overlap.
	HiddenCommSec float64
	// Buckets is the overlap pipeline's per-bucket timeline (bucket 0
	// covers the first layers and is ready last). Nil unless Overlap.
	Buckets []comm.BucketTiming
}

// Duration returns the total time as a time.Duration.
func (e Estimate) Duration() time.Duration { return time.Duration(e.TotalSec * float64(time.Second)) }

// String renders a compact summary row.
func (e Estimate) String() string {
	if e.OOM {
		return fmt.Sprintf("%s B=%d on %dx %s: OOM", e.Model, e.Batch, e.Cluster.Count, e.Cluster.Machine.Name)
	}
	return fmt.Sprintf("%s B=%d on %dx %s: %s (%.0f img/s, comm %.0f%%)",
		e.Model, e.Batch, e.Cluster.Count, e.Cluster.Machine.Name,
		formatDuration(e.TotalSec), e.ImagesSec, 100*e.CommSec/(e.CompSec+e.CommSec+1e-30))
}

// formatDuration renders seconds as the paper's "21h" / "24m" style.
func formatDuration(sec float64) string {
	d := time.Duration(sec * float64(time.Second))
	switch {
	case d >= 48*time.Hour:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	case d >= time.Hour:
		h := int(d.Hours())
		m := int(d.Minutes()) - 60*h
		return fmt.Sprintf("%dh%02dm", h, m)
	case d >= time.Minute:
		return fmt.Sprintf("%.0fm", d.Minutes())
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

// Simulate prices one fixed-epoch training run of spec on c with global
// batch size batch over a dataset of datasetSize images.
func Simulate(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int) Estimate {
	if c.Count <= 0 || batch <= 0 || epochs <= 0 || datasetSize <= 0 {
		panic("cluster: invalid simulation parameters")
	}
	e := Estimate{
		Cluster: c, Model: spec.Name, Batch: batch, Epochs: epochs,
		Iterations: comm.Iterations(epochs, datasetSize, batch),
	}
	var rawComm float64
	e.LocalBatch, e.MicroBatch, e.CompSec, rawComm = iterCost(c, spec, batch, c.Count)
	if e.MicroBatch == 0 {
		e.OOM = true
		return e
	}
	e.Comm, e.TierComm = allreduceStats(c, spec, c.Count)
	h, hier := c.Hierarchy()
	if c.Overlap {
		// Bucket-level overlap: pipeline the bucket allreduces against
		// the backward pass (per fabric for hierarchical clusters) and
		// expose only what the pipeline cannot hide.
		k := c.OverlapBuckets
		if k <= 0 {
			k = DefaultOverlapBuckets
		}
		bucketBytes := comm.EqualBuckets(spec.WeightBytes(), k)
		e.BackwardSec = backwardShare * e.CompSec
		if hier {
			e.Buckets = comm.HierOverlapSchedule(c.IntraNetwork, c.Network, h, bucketBytes, e.BackwardSec)
		} else {
			e.Buckets = comm.OverlapSchedule(c.Network, c.Algo, c.Count, bucketBytes, e.BackwardSec)
		}
		e.CommSec = comm.ExposedTime(e.Buckets, e.BackwardSec)
		// The bucket costs sum exactly to rawComm (latency amortizes
		// across the pipelined buckets), so the hidden remainder is the
		// serial cost minus what stayed exposed.
		e.HiddenCommSec = rawComm - e.CommSec
	} else {
		e.CommSec = rawComm
	}
	iterSec := e.CompSec + e.CommSec
	e.TotalSec = float64(e.Iterations) * iterSec
	e.ImagesSec = float64(batch) / iterSec
	return e
}

// iterCost prices one lockstep iteration of spec at global batch batch on
// world live devices of c: t_comp(local) + t_comm(world, |W|). The largest
// shard sets the pace, so local is ceil(batch/world). micro is the compute
// batch after memory-driven micro-batching; 0 means not even one image
// fits, and the zero costs returned with it must not be used. commSec is
// one serial allreduce, two-tier on hierarchical clusters with devices lost
// from the last node first (HierarchicalAllreduceTime at full strength).
func iterCost(c Cluster, spec *models.ModelSpec, batch, world int) (local, micro int, compSec, commSec float64) {
	local = (batch + world - 1) / world
	micro = min(local, MaxBatch(c.Machine, spec))
	if micro == 0 {
		return local, 0, 0, 0
	}
	eff := c.Machine.ProfileFor(spec.Name).Efficiency(float64(micro))
	compSec = float64(local) * float64(spec.TrainFLOPsPerImage()) / (c.Machine.PeakFLOPS * eff)
	if h, hier := c.Hierarchy(); hier {
		commSec = comm.DegradedHierarchicalAllreduceTime(c.IntraNetwork, c.Network, h,
			degradedNodeSizes(h.Nodes, h.PerNode, world), spec.WeightBytes())
	} else {
		commSec = c.Network.AllreduceTime(c.Algo, world, spec.WeightBytes())
	}
	return local, micro, compSec, commSec
}

// allreduceStats returns the closed-form schedule of one gradient allreduce
// at world live devices — the counters internal/dist records executing the
// same exchange — and, for hierarchical clusters, its split by fabric tier
// (zero when flat). It degrades the fleet the way iterCost does.
func allreduceStats(c Cluster, spec *models.ModelSpec, world int) (dist.CommStats, dist.TierStats) {
	if h, hier := c.Hierarchy(); hier {
		t := comm.ExpectedDegradedTierStats(h, degradedNodeSizes(h.Nodes, h.PerNode, world), spec.WeightBytes())
		return t.Total(), t
	}
	return comm.ExpectedStatsAt(c.Algo, c.Count, c.Count-world, spec.WeightBytes()), dist.TierStats{}
}

// Phase is one constant-cost segment of a priced run: Iterations
// iterations at Devices live devices, with H×W input (zero H and W mean the
// spec's own resolution). The segment builders (SimulateElastic by
// eviction fraction, SimulateProgressive by resolution schedule) set those
// fields; pricePhases fills the costs.
type Phase struct {
	Devices    int
	H, W       int
	Epochs     int // epochs the segment covers (resolution phases only)
	Iterations int64
	CompSec    float64 // per-iteration computation
	CommSec    float64 // per-iteration serial communication
	ImagesSec  float64 // sustained throughput during the phase
	// TrainFLOPsPerImage is the forward+backward cost per image at the
	// phase's resolution.
	TrainFLOPsPerImage int64
}

// IterSec returns the phase's per-iteration time.
func (p Phase) IterSec() float64 { return p.CompSec + p.CommSec }

// pricePhases fills every phase's costs through iterCost and returns the
// summed wall time, or oom (and zero) at the first phase where not even one
// image fits. Communication is serial; only Simulate models overlap.
func pricePhases(c Cluster, spec *models.ModelSpec, batch int, phases []Phase) (totalSec float64, oom bool) {
	for i := range phases {
		p := &phases[i]
		phaseSpec := spec
		if p.H > 0 {
			phaseSpec = spec.At(p.H, p.W)
		}
		_, micro, compSec, commSec := iterCost(c, phaseSpec, batch, p.Devices)
		if micro == 0 {
			return 0, true
		}
		p.CompSec, p.CommSec = compSec, commSec
		p.ImagesSec = float64(batch) / p.IterSec()
		p.TrainFLOPsPerImage = phaseSpec.TrainFLOPsPerImage()
		totalSec += float64(p.Iterations) * p.IterSec()
	}
	return totalSec, false
}

// ThroughputPoint is one x/y pair of Figure 3: per-device batch size versus
// sustained images/second on a single device (0 marks out-of-memory).
type ThroughputPoint struct {
	Batch     int
	ImagesSec float64
	OOM       bool
}

// ThroughputCurve regenerates Figure 3's shape for one device and model.
func ThroughputCurve(m Machine, spec *models.ModelSpec, batches []int) []ThroughputPoint {
	fit := MaxBatch(m, spec)
	prof := m.ProfileFor(spec.Name)
	out := make([]ThroughputPoint, 0, len(batches))
	for _, b := range batches {
		if b > fit {
			out = append(out, ThroughputPoint{Batch: b, OOM: true})
			continue
		}
		eff := prof.Efficiency(float64(b))
		ips := m.PeakFLOPS * eff / float64(spec.TrainFLOPsPerImage())
		out = append(out, ThroughputPoint{Batch: b, ImagesSec: ips})
	}
	return out
}
