package cluster

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
)

// ProgressiveEstimate prices a fixed-epoch run under a resolution schedule
// — the simulator twin of core.Config.Resolutions, mirroring how
// ElasticEstimate prices worlds (both walk one Phase timeline). The epoch
// budget and iteration count are unchanged by the curriculum; what changes
// is each phase's per-image compute, so TotalSec versus Fixed.TotalSec is
// the analytic wall-clock saving of the ENTR hypothesis (assuming the
// curriculum reaches the same accuracy — the measured study's question).
type ProgressiveEstimate struct {
	// Fixed is the same configuration priced at the spec's canonical
	// resolution for every epoch.
	Fixed Estimate
	// Phases is the resolution timeline in schedule order; nil when OOM.
	Phases []Phase
	// OOM marks a run where not even one image fits, in some phase at
	// its resolution or in the fixed baseline; the totals are then zero.
	OOM bool
	// TotalSec is the scheduled run's wall clock; ImagesSec its average
	// sustained throughput.
	TotalSec  float64
	ImagesSec float64
	// TrainFLOPs and FixedTrainFLOPs are the total training FLOPs of the
	// scheduled and fixed runs (per full pass over the iteration budget).
	TrainFLOPs      float64
	FixedTrainFLOPs float64
}

// Duration returns the scheduled total time as a time.Duration.
func (e ProgressiveEstimate) Duration() time.Duration {
	return time.Duration(e.TotalSec * float64(time.Second))
}

// SpeedupPct returns how much faster the scheduled run is than the fixed
// baseline, in percent of the fixed wall clock.
func (e ProgressiveEstimate) SpeedupPct() float64 {
	if e.Fixed.TotalSec == 0 {
		return 0
	}
	return 100 * (e.Fixed.TotalSec - e.TotalSec) / e.Fixed.TotalSec
}

// FLOPSavingsPct returns the fraction of training FLOPs the curriculum
// avoids, in percent.
func (e ProgressiveEstimate) FLOPSavingsPct() float64 {
	if e.FixedTrainFLOPs == 0 {
		return 0
	}
	return 100 * (e.FixedTrainFLOPs - e.TrainFLOPs) / e.FixedTrainFLOPs
}

// SimulateProgressive prices one fixed-epoch training run of spec on c
// under a per-epoch resolution schedule. Each phase reprices compute with
// the spec replayed at the phase resolution (models.ModelSpec.At — memory
// fit and micro-batching included, since activation footprints shrink with
// the input), while communication stays at the canonical weight volume:
// the schedule requires |W| to be resolution-invariant (a GAP-headed
// model), and it panics otherwise, because a resolution-dependent weight
// vector cannot train under a lockstep schedule at all. Communication is
// priced serially, mirroring SimulateElastic (Overlap is ignored).
func SimulateProgressive(c Cluster, spec *models.ModelSpec, batch, epochs, datasetSize int, sched *data.ResolutionSchedule) ProgressiveEstimate {
	c.Overlap = false
	out := ProgressiveEstimate{Fixed: Simulate(c, spec, batch, epochs, datasetSize)}
	if out.Fixed.OOM {
		out.OOM = true
		return out
	}
	// Phase iteration counts are cumulative-boundary differences so they
	// sum exactly to Fixed.Iterations regardless of rounding.
	itersBy := func(epoch int) int64 { return comm.Iterations(epoch, datasetSize, batch) }
	var phases []Phase
	for _, p := range sched.PhasesIn(epochs) {
		if got, want := spec.ParamCountAt(p.H, p.W), spec.ParamCount(); got != want {
			panic(fmt.Sprintf("cluster: %s has %d params at %dx%d but %d at canonical — a resolution schedule needs a GAP-headed (resolution-invariant) model",
				spec.Name, got, p.H, p.W, want))
		}
		phases = append(phases, Phase{
			Devices: c.Count, H: p.H, W: p.W, Epochs: p.Epochs(epochs),
			Iterations: itersBy(p.From+p.Epochs(epochs)) - itersBy(p.From),
		})
	}
	total, oom := pricePhases(c, spec, batch, phases)
	if oom {
		out.OOM = true
		return out
	}
	out.Phases, out.TotalSec = phases, total
	fixedIterFLOPs := float64(batch) * float64(spec.TrainFLOPsPerImage())
	for _, p := range phases {
		out.TrainFLOPs += float64(p.Iterations) * float64(batch) * float64(p.TrainFLOPsPerImage)
		out.FixedTrainFLOPs += float64(p.Iterations) * fixedIterFLOPs
	}
	if out.TotalSec > 0 {
		out.ImagesSec = float64(batch) * float64(out.Fixed.Iterations) / out.TotalSec
	}
	return out
}
