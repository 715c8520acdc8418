package main

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// layerGroups are the per-layer buckets the traced run reports: the GEMM
// layers by name, everything else (batch norm, ReLU, pooling, dropout,
// flatten) summed as "other". The loss is computed inside the dist workers,
// out of the benchmark's reach, so it is not in any bucket.
var layerGroups = []string{"conv1", "conv2", "fc1", "fc2", "fc3", "other"}

func groupOf(name string) string {
	for _, g := range layerGroups[:len(layerGroups)-1] {
		if name == g {
			return g
		}
	}
	return "other"
}

// timedLayer wraps one layer of one replica and accumulates the wall time
// of its Forward and Backward calls. Each replica gets its own wrappers, so
// the worker goroutine that owns the replica is the only writer; readers
// run after the engine's step barrier.
type timedLayer struct {
	nn.Layer
	fwd, bwd time.Duration
}

func (t *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	start := time.Now()
	y := t.Layer.Forward(x, train)
	t.fwd += time.Since(start)
	return y
}

func (t *timedLayer) Backward(dout *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	dx := t.Layer.Backward(dout)
	t.bwd += time.Since(start)
	return dx
}

// tracer times the layers of a set of replicas. wrap swaps each replica's
// layers for timed wrappers; unwrap restores the originals.
type tracer struct {
	nets    []*nn.Network
	orig    [][]nn.Layer
	wrapped [][]*timedLayer
}

func newTracer(nets ...*nn.Network) *tracer {
	t := &tracer{nets: nets}
	for _, net := range nets {
		t.orig = append(t.orig, net.Layers)
		ws := make([]*timedLayer, len(net.Layers))
		for i, l := range net.Layers {
			ws[i] = &timedLayer{Layer: l}
		}
		t.wrapped = append(t.wrapped, ws)
	}
	return t
}

func (t *tracer) wrap() {
	for i, net := range t.nets {
		layers := make([]nn.Layer, len(t.wrapped[i]))
		for j, w := range t.wrapped[i] {
			layers[j] = w
		}
		net.Layers = layers
	}
}

func (t *tracer) unwrap() {
	for i, net := range t.nets {
		net.Layers = t.orig[i]
	}
}

// addLayerShares writes each layer group's forward and backward time,
// summed over the traced replicas, as a share of the step wall time times
// the number of replicas that run concurrently.
func addLayerShares(vals map[string]float64, stepWall time.Duration, concurrent int, tracers ...*tracer) {
	fwd := map[string]time.Duration{}
	bwd := map[string]time.Duration{}
	for _, t := range tracers {
		for _, ws := range t.wrapped {
			for _, w := range ws {
				g := groupOf(w.Name())
				fwd[g] += w.fwd
				bwd[g] += w.bwd
			}
		}
	}
	total := float64(stepWall) * float64(concurrent)
	for _, g := range layerGroups {
		vals["nn."+g+".fwd_share"] = float64(fwd[g]) / total
		vals["nn."+g+".bwd_share"] = float64(bwd[g]) / total
	}
}

// phases is a window of the kernel profiler's phase buckets.
type phases [kernel.NumPhases]int64

func (p *phases) add(gemm, im2col, convert, reduce int64) {
	p[kernel.PhaseGemm] += gemm
	p[kernel.PhaseIm2col] += im2col
	p[kernel.PhaseConvert] += convert
	p[kernel.PhaseReduce] += reduce
}

// addShares writes the kernel phase buckets as shares of the step wall time.
func (p *phases) addShares(vals map[string]float64, stepWall time.Duration) {
	w := float64(stepWall)
	vals["kernel.gemm_share"] = float64(p[kernel.PhaseGemm]) / w
	vals["kernel.im2col_share"] = float64(p[kernel.PhaseIm2col]) / w
	vals["kernel.convert_share"] = float64(p[kernel.PhaseConvert]) / w
	vals["dist.reduce_share"] = float64(p[kernel.PhaseReduce]) / w
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
