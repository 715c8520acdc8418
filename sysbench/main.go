// Command sysbench is the system benchmark: it runs one named workload
// through the entry points users call — core.Train for training,
// serve.PoolFromCheckpoint and Pool.Run for serving — checks the outputs,
// and prints its metrics as one JSON line.
//
//	bash sysbench/run.sh --workload large-batch-conv --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced. With
// --trace 1 it also drives the same work call by call through the layers'
// public functions, timing each call from here (the program itself carries
// no tracing), and reports the per-layer breakdown. BENCHMARK.json at the
// repository root declares the workloads and metrics; README.md in this
// directory maps each per-layer metric to the end-to-end metric it moves.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type workload interface {
	run(rc runCfg) (*outcome, error)
}

var workloads = map[string]workload{
	"large-batch-conv": largeBatchConv,
	"small-batch-mlp":  smallBatchMLP,
	"serve-f16":        serveWorkload{},
}

// Salts separating the seeds derived from the workload seed.
const (
	saltSynth uint64 = iota + 1
	saltTrain
	saltTrace
	saltSample
)

const (
	// setupRuns is how many times set-up runs; setup_s is the median.
	setupRuns = 15
	// minTailSamples keeps the traced run going until the step tail rule
	// can report at least the median with ten samples beyond it.
	minTailSamples = 20
)

// derive maps the workload seed and a salt to an independent seed
// (splitmix64), so the seed alone fixes every generated input.
func derive(seed, salt uint64) uint64 {
	z := seed ^ salt*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

type runCfg struct {
	seed   uint64
	window time.Duration
	traced bool
	log    io.Writer
}

// outcome is a workload's measured values and operation counts.
type outcome struct {
	vals              map[string]float64
	attempted, failed int64
	log               io.Writer
}

func newOutcome(rc runCfg) *outcome {
	return &outcome{vals: map[string]float64{}, log: rc.log}
}

func (o *outcome) fail(ops int64, format string, args ...any) {
	o.failed += ops
	fmt.Fprintf(o.log, "FAIL "+format+"\n", args...)
}

// measureAllocs runs f between two reads of the runtime's memory
// statistics and records the allocations per operation and the peak heap
// footprint: the heap's address space only grows, so one read after f gives
// the peak without a sampler.
func (o *outcome) measureAllocs(f func(), ops int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	o.vals["mem.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(ops)
	o.vals["mem.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops) / 1e6
	o.vals["mem.heap_peak_mb"] = float64(after.HeapSys) / 1e6
}

// timeSetup runs set-up setupRuns times and returns the median CPU time in
// seconds: set-up is single-threaded, so its CPU time is its wall time net
// of steal (see usage). The last run's state is what the workload goes on
// to use.
func timeSetup(f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		u := readUsage()
		if err := f(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		_, cpu := u.elapsed()
		secs = append(secs, cpu.Seconds())
	}
	return median(secs), nil
}

// rates records each measured call's throughput: items per second of work
// time and per CPU-second (see usage).
type rates struct {
	work, cpu []float64
}

// add records one call that processed items since u, and logs it.
func (r *rates) add(log io.Writer, what string, items float64, u usage) {
	work, cpu := u.elapsed()
	r.work = append(r.work, items/work.Seconds())
	r.cpu = append(r.cpu, items/cpu.Seconds())
	fmt.Fprintf(log, "%s %d: %.1f img/s of work time, %.1f img/s of wall time, %.1f img/cpu-s\n",
		what, len(r.work), r.work[len(r.work)-1], items/time.Since(u.wall).Seconds(), r.cpu[len(r.cpu)-1])
}

// repeat runs body at least once, then again while one more repetition of
// the last one's length still fits in the window, or while need reports
// that the run has too few samples.
func repeat(window time.Duration, need func() bool, body func()) {
	start := time.Now()
	for {
		t := time.Now()
		body()
		if time.Since(start)+time.Since(t) > window && !need() {
			return
		}
	}
}

// addStepTail reports the traced step times: median, tail by the tail rule,
// the tail's percentile and the sample count.
func addStepTail(vals map[string]float64, steps []time.Duration) error {
	samples := ms(steps)
	pct, v, n, ok := tail(samples)
	if !ok {
		return fmt.Errorf("%d step samples support no tail percentile", n)
	}
	vals["core.step_ms_p50"] = p50(samples)
	vals["core.step_ms_tail"] = v
	vals["core.step_tail_pct"] = pct
	vals["core.steps"] = float64(n)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sysbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; derives every generated input")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: sysbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	if err := validate(specs); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rc := runCfg{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, log: stderr}
	fmt.Fprintf(stdout, "workload=%s seed=%d synth_seed=%d train_seed=%d trace_seed=%d seconds=%d trace=%d gomaxprocs=%d\n",
		*name, *seed, derive(*seed, saltSynth), derive(*seed, saltTrain), derive(*seed, saltTrace),
		*seconds, *trace, runtime.GOMAXPROCS(0))
	o, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	line, err := encode(specs, o.vals, o.attempted, o.failed)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if o.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
