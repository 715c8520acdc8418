// Ablation benchmarks for the design choices internal/README.md describes: the
// allreduce algorithm, the LARS trust coefficient, warmup, LARC clipping,
// gradient compression, and worker-count speedup. Each reports its effect
// as custom metrics rather than asserting (they are studies, not tests; the
// corresponding invariants live in the package test suites).
package repro

import (
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func ablationDataset() *data.Synth {
	cfg := data.DefaultSynthConfig()
	cfg.TrainSize, cfg.H, cfg.W = 1024, 16, 16
	return data.GenerateSynth(cfg)
}

func ablationFactory() func(uint64) *nn.Network {
	return func(seed uint64) *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 8, InH: 16, Width: 8, Seed: seed})
	}
}

// BenchmarkAblationAllreduce times one real gradient exchange of a
// ResNet-50-sized buffer under each algorithm at P=8.
func BenchmarkAblationAllreduce(b *testing.B) {
	const p = 8
	n := int(models.ResNet50Spec().ParamCount())
	for _, algo := range []dist.Algorithm{dist.Central, dist.Tree, dist.Ring} {
		b.Run(algo.String(), func(b *testing.B) {
			bufs := make([][]float32, p)
			r := rng.New(1)
			for i := range bufs {
				bufs[i] = make([]float32, n)
				for j := 0; j < n; j += 97 {
					bufs[i][j] = r.NormFloat32()
				}
			}
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var stats dist.CommStats
				dist.Reduce(algo, bufs, &stats)
			}
		})
	}
}

// BenchmarkAblationTrust sweeps the LARS trust coefficient at a large batch
// and reports the resulting accuracies — the sensitivity study behind the
// repo's choice of 0.05 (the paper uses 0.001 at ImageNet scale).
func BenchmarkAblationTrust(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := ablationDataset()
		for _, trust := range []float64{0.01, 0.05, 0.1} {
			res, err := core.Train(core.Config{
				Model: ablationFactory(), Workers: 2, Batch: 512, Epochs: 10,
				Method: core.LARSWarmup, BaseLR: 0.05, BaseBatch: 32,
				WarmupEpochs: 5, Trust: trust, Seed: 1,
			}, ds)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.TestAcc, "acc%-trust"+formatTrust(trust))
		}
	}
}

func formatTrust(t float64) string {
	switch t {
	case 0.01:
		return "0.01"
	case 0.05:
		return "0.05"
	default:
		return "0.10"
	}
}

// BenchmarkAblationWarmup compares LARS with and without warmup at a large
// batch: warmup is load-bearing, not a nicety (Table 5/7's lesson).
func BenchmarkAblationWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := ablationDataset()
		run := func(warmup float64) float64 {
			res, err := core.Train(core.Config{
				Model: ablationFactory(), Workers: 2, Batch: 512, Epochs: 10,
				Method: core.LARSWarmup, BaseLR: 0.05, BaseBatch: 32,
				WarmupEpochs: warmup, Trust: 0.05, Seed: 1,
			}, ds)
			if err != nil {
				b.Fatal(err)
			}
			return res.TestAcc
		}
		b.ReportMetric(100*run(5), "acc%-warmup5")
		b.ReportMetric(100*run(0), "acc%-warmup0")
	}
}

// BenchmarkAblationLARC contrasts the raw LARS trust ratio with the LARC
// clipped one on a pathological layer (huge weights, vanishing gradient)
// where unclipped LARS would take an enormous step.
func BenchmarkAblationLARC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mk := func(clip float64) float64 {
			p := nn.NewParam("w", 1024)
			r := rng.New(2)
			p.W.FillNormal(r, 0, 10)
			p.G.FillNormal(r, 0, 1e-5)
			l := opt.NewLARS([]*nn.Param{p}, opt.LARSConfig{Trust: 0.05, Clip: clip, Eps: 1e-12})
			l.Step(0.1)
			return l.TrustRatios()[0]
		}
		b.ReportMetric(mk(0), "raw-ratio")
		b.ReportMetric(mk(1), "larc-capped-ratio")
	}
}

// BenchmarkAblationCompression measures 1-bit gradient compression:
// throughput of encode/decode on a ResNet-50-sized gradient and the
// achieved wire reduction.
func BenchmarkAblationCompression(b *testing.B) {
	n := int(models.ResNet50Spec().ParamCount())
	g := make([]float32, n)
	r := rng.New(3)
	for i := range g {
		g[i] = r.NormFloat32()
	}
	z := compress.NewQuantizer(n)
	out := make([]float32, n)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		q := z.Encode(g)
		q.Decode(out)
		ratio = q.CompressionRatio()
	}
	b.ReportMetric(ratio, "compression-x")
}

// BenchmarkAblationWorkers measures the real data-parallel speedup of the
// dist engine on this machine (bounded by GOMAXPROCS).
func BenchmarkAblationWorkers(b *testing.B) {
	ds := ablationDataset()
	x, labels := ds.Train.MustGather(seqInts(256))
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "P1", 2: "P2"}[workers], func(b *testing.B) {
			replicas := make([]*nn.Network, workers)
			for i := range replicas {
				replicas[i] = ablationFactory()(uint64(i))
			}
			e := dist.NewEngine(dist.Config{Algo: dist.Ring}, replicas)
			defer e.Close()
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ComputeGradient(x, labels); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)*256/elapsed, "img/s")
			}
		})
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkConvForward measures the conv stack's forward throughput — the
// compute kernel the paper's t_comp term models.
func BenchmarkConvForward(b *testing.B) {
	net := models.NewMicroAlexNet(models.MicroConfig{Classes: 8, InH: 16, Width: 8, Seed: 1})
	r := rng.New(4)
	x := tensor.RandNormal(r, 1, 64, 3, 16, 16)
	b.SetBytes(64 * 3 * 16 * 16 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}

// BenchmarkTrainStep measures one full synchronous training step (forward,
// backward, allreduce, LARS update, broadcast) at batch 64 over 2 workers.
func BenchmarkTrainStep(b *testing.B) {
	ds := ablationDataset()
	x, labels := ds.Train.MustGather(seqInts(64))
	replicas := []*nn.Network{ablationFactory()(1), ablationFactory()(2)}
	e := dist.NewEngine(dist.Config{Algo: dist.Ring}, replicas)
	defer e.Close()
	o := opt.NewLARS(e.Master().Params(), opt.DefaultLARSConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ComputeGradient(x, labels); err != nil {
			b.Fatal(err)
		}
		o.Step(0.05)
		if err := e.BroadcastWeights(); err != nil {
			b.Fatal(err)
		}
	}
}
