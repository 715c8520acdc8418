package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// spec declares one reported metric: its name, unit and better direction.
// BENCHMARK.json lists the same names; the tests keep the two in step.
type spec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports all of them. Times are net of hypervisor
// steal (see usage).
var endToEnd = []spec{
	{"img_per_s", "img/s", "higher"},
	{"img_per_cpu_s", "img/cpu-s", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. Times are reported only where every
// workload exercises the measured call; a layer that only some workloads run
// is reported as its share of the traced step wall time (0 where absent), so
// no time metric reads a constant 0.
var perLayer = []spec{
	{"core.step_ms_p50", "ms", "lower"},
	{"core.step_ms_tail", "ms", "lower"},
	{"core.step_tail_pct", "pct", "higher"},
	{"core.steps", "count", "higher"},
	{"core.top1", "frac", "higher"},
	{"core.final_loss", "nats", "lower"},
	{"core.fixed_share", "frac", "lower"},
	{"data.gather_ms_p50", "ms", "lower"},
	{"nn.conv1.fwd_share", "frac", "lower"},
	{"nn.conv1.bwd_share", "frac", "lower"},
	{"nn.conv2.fwd_share", "frac", "lower"},
	{"nn.conv2.bwd_share", "frac", "lower"},
	{"nn.fc1.fwd_share", "frac", "lower"},
	{"nn.fc1.bwd_share", "frac", "lower"},
	{"nn.fc2.fwd_share", "frac", "lower"},
	{"nn.fc2.bwd_share", "frac", "lower"},
	{"nn.fc3.fwd_share", "frac", "lower"},
	{"nn.fc3.bwd_share", "frac", "lower"},
	{"nn.other.fwd_share", "frac", "lower"},
	{"nn.other.bwd_share", "frac", "lower"},
	{"kernel.gemm_share", "frac", "lower"},
	{"kernel.im2col_share", "frac", "lower"},
	{"kernel.convert_share", "frac", "lower"},
	{"dist.grad_share", "frac", "lower"},
	{"dist.reduce_share", "frac", "lower"},
	{"dist.bcast_share", "frac", "lower"},
	{"dist.eval_share", "frac", "lower"},
	{"dist.comm_mb_per_step", "MB", "lower"},
	{"dist.comm_msgs_per_step", "count", "lower"},
	{"dist.hidden_bytes_frac", "frac", "higher"},
	{"opt.step_share", "frac", "lower"},
	{"serve.forward_share", "frac", "lower"},
	{"serve.schedule_share", "frac", "lower"},
	{"serve.batches", "count", "lower"},
	{"serve.batch_mean", "count", "higher"},
	{"checkpoint.write_ms", "ms", "lower"},
	{"checkpoint.read_ms", "ms", "lower"},
	{"mem.allocs_per_op", "count", "lower"},
	{"mem.alloc_mb_per_op", "MB", "lower"},
	{"mem.heap_peak_mb", "MB", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks every declared metric: a well-formed, unique name, a
// well-formed unit and a better direction.
func validate(specs []spec) error {
	seen := map[string]bool{}
	for _, s := range specs {
		if !nameRE.MatchString(s.Name) {
			return fmt.Errorf("metric name %q: want %s", s.Name, nameRE)
		}
		if seen[s.Name] {
			return fmt.Errorf("metric name %q declared twice", s.Name)
		}
		seen[s.Name] = true
		if !unitRE.MatchString(s.Unit) {
			return fmt.Errorf("metric %q: unit %q: want %s", s.Name, s.Unit, unitRE)
		}
		if s.Better != "higher" && s.Better != "lower" {
			return fmt.Errorf("metric %q: better %q: want higher or lower", s.Name, s.Better)
		}
	}
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// encode renders the result line from the measured values. It refuses a
// value set that misses a declared metric, names an undeclared one, or holds
// a non-finite number, so the printed set always matches the declaration.
func encode(specs []spec, vals map[string]float64, attempted, failed int64) ([]byte, error) {
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", s.Name, v)
		}
		out.Metrics[s.Name] = value{v, s.Unit}
	}
	if len(vals) != len(specs) {
		var extra []string
		for name := range vals {
			if _, ok := out.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return json.Marshal(out)
}

// tailLadder is the percentile ladder the tail rule picks from, highest
// first, in tenths of a percent so ranks are exact integers.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// rank is the 1-based nearest rank of the q/10-th percentile among n
// samples: ceil(q·n/1000), at least 1.
func rank(q, n int) int {
	return max(1, (q*n+999)/1000)
}

// tail returns the highest percentile on tailLadder that leaves at least ten
// samples strictly beyond its nearest-rank value, that value and the sample
// count. ok is false when fewer than twenty samples support even the median.
func tail(samples []float64) (pct, v float64, n int, ok bool) {
	n = len(samples)
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, q := range tailLadder {
		if n == 0 {
			break
		}
		v = sorted[rank(q, n)-1]
		// Count by value, so ties with the percentile are not beyond it.
		if beyond := n - sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1))); beyond >= 10 {
			return float64(q) / 10, v, n, true
		}
	}
	return 0, 0, n, false
}

// p50 is the nearest-rank median, the same rule tail uses.
func p50(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank(500, len(sorted))-1]
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
