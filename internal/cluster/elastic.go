package cluster

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/models"
)

// ElasticEstimate prices a fixed-epoch run whose fleet shrinks
// mid-training — the simulator twin of the engine's elastic membership.
// The epoch budget (and with it the optimizer trajectory, hence the
// accuracy) is unchanged by evictions; what degrades is the wall clock, so
// TotalSec versus Healthy.TotalSec is the time-to-accuracy cost of running
// on a shrinking world.
type ElasticEstimate struct {
	// Healthy is the same configuration priced with the fleet intact.
	Healthy Estimate
	// Phases is the world-size timeline, full fleet first.
	Phases []Phase
	// TotalSec is the degraded run's wall clock; ImagesSec its average
	// sustained throughput.
	TotalSec  float64
	ImagesSec float64
}

// Duration returns the degraded total time as a time.Duration.
func (e ElasticEstimate) Duration() time.Duration {
	return time.Duration(e.TotalSec * float64(time.Second))
}

// SlowdownPct returns how much slower the degraded run is than the healthy
// fleet, in percent.
func (e ElasticEstimate) SlowdownPct() float64 {
	if e.Healthy.TotalSec == 0 {
		return 0
	}
	return 100 * (e.TotalSec - e.Healthy.TotalSec) / e.Healthy.TotalSec
}

// SimulateElastic prices one fixed-epoch training run of spec on c during
// which the fleet degrades: each entry of evictAtFrac is the fraction of
// total iterations completed when one device is permanently lost and
// evicted (the engine's Elastic policy at cluster scale). The global batch
// and iteration count stay fixed — the survivors absorb the work — so each
// post-eviction phase pays a larger local batch and a (slightly) cheaper
// collective. Hierarchical clusters (PerNode > 1) lose devices from the
// last node first, the node emptying out of the inter tier exactly as the
// engine's membership machine shrinks it. Communication is priced serially
// (the overlap pipeline is a healthy-fleet refinement; Overlap is ignored
// here), and the phase boundaries round down to whole iterations.
func SimulateElastic(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int, evictAtFrac []float64) ElasticEstimate {
	c.Overlap = false
	out := ElasticEstimate{Healthy: Simulate(c, spec, batch, epochs, datasetSize)}
	if out.Healthy.OOM {
		return out
	}
	if len(evictAtFrac) >= c.Count {
		panic(fmt.Sprintf("cluster: cannot evict %d of %d devices", len(evictAtFrac), c.Count))
	}
	fracs := append([]float64(nil), evictAtFrac...)
	sort.Float64s(fracs)
	total := out.Healthy.Iterations

	// Phase boundaries in whole iterations; zero-length phases drop out.
	// Every shrunken world fits because the healthy one does: the
	// per-device fit does not depend on the world size.
	start, world := int64(0), c.Count
	for _, f := range fracs {
		if end := int64(min(max(f, 0), 1) * float64(total)); end > start {
			out.Phases = append(out.Phases, Phase{Devices: world, Iterations: end - start})
			start = end
		}
		world--
	}
	if total > start {
		out.Phases = append(out.Phases, Phase{Devices: world, Iterations: total - start})
	}
	out.TotalSec, _ = pricePhases(c, spec, batch, out.Phases)
	out.ImagesSec = float64(batch) * float64(total) / out.TotalSec
	return out
}

// degradedNodeSizes distributes world live devices over nodes of perNode,
// filling from the front — equivalent to evicting devices from the last
// node first, so nodes empty (and leave the inter tier) one at a time.
func degradedNodeSizes(nodes, perNode, world int) []int {
	var sizes []int
	for i := 0; i < nodes && world > 0; i++ {
		s := perNode
		if s > world {
			s = world
		}
		sizes = append(sizes, s)
		world -= s
	}
	return sizes
}
