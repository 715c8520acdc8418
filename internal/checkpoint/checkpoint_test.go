package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestRoundTripBytes(t *testing.T) {
	c := &Checkpoint{Step: 42}
	c.Add("a", []float32{1, 2, 3})
	c.Add("b", []float32{-0.5})
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 42 || len(got.Sections) != 2 {
		t.Fatalf("roundtrip: step %d sections %d", got.Step, len(got.Sections))
	}
	if got.Sections[0].Name != "a" || got.Sections[0].Data[2] != 3 {
		t.Fatal("section a corrupted")
	}
	if got.Sections[1].Data[0] != -0.5 {
		t.Fatal("section b corrupted")
	}
}

// Property: arbitrary float32 payloads (including NaN bit patterns from the
// uint32 space) survive a write/read cycle bitwise.
func TestRoundTripProperty(t *testing.T) {
	f := func(step int64, bits []uint32) bool {
		data := make([]float32, len(bits))
		for i, b := range bits {
			data[i] = math.Float32frombits(b)
		}
		c := &Checkpoint{Step: step}
		c.Add("x", data)
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Step != step {
			return false
		}
		out := got.Find("x")
		if len(out) != len(data) {
			return false
		}
		for i := range out {
			if math.Float32bits(out[i]) != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted as checkpoint")
	}
}

func TestTruncatedRejected(t *testing.T) {
	c := &Checkpoint{Step: 1}
	c.Add("w", make([]float32, 100))
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 12, 20, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestHugeSectionLengthBoundedAlloc feeds a 28-byte header that claims a
// 2^28-element section and supplies no data: Read must fail on the missing
// bytes without first allocating what the header asked for (2 GiB).
func TestHugeSectionLengthBoundedAlloc(t *testing.T) {
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, magic)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // step
	hdr = binary.LittleEndian.AppendUint32(hdr, 1) // one section
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // empty name
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<28)
	if len(hdr) != 28 {
		t.Fatalf("header is %d bytes, want 28", len(hdr))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("section with no data accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for a 28-byte input, want < 1 MiB", d)
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	mk := func(seed uint64) *nn.Network {
		return models.NewMicroAlexNet(models.MicroConfig{Classes: 4, InH: 8, Width: 4, Seed: seed})
	}
	src := mk(1)
	dst := mk(2) // different init
	c := FromNetwork(src, 7)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.ApplyToNetwork(dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].W.Data {
			if sp[i].W.Data[j] != dp[i].W.Data[j] {
				t.Fatalf("param %s differs after restore", sp[i].Name)
			}
		}
	}
}

func TestApplyMissingParam(t *testing.T) {
	net := models.NewMLP(models.MicroConfig{Classes: 2, InC: 1, InH: 2, InW: 2, Width: 2, Seed: 1})
	c := &Checkpoint{}
	if err := c.ApplyToNetwork(net); err == nil {
		t.Fatal("missing parameters must error")
	}
}

func TestApplySizeMismatch(t *testing.T) {
	net := models.NewMLP(models.MicroConfig{Classes: 2, InC: 1, InH: 2, InW: 2, Width: 2, Seed: 1})
	c := FromNetwork(net, 0)
	c.Sections[0].Data = c.Sections[0].Data[:1]
	if err := c.ApplyToNetwork(net); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("size mismatch not reported: %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.lars")
	c := &Checkpoint{Step: 3}
	c.Add("w", []float32{1.5, 2.5})
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 3 || got.Find("w")[1] != 2.5 {
		t.Fatal("file roundtrip corrupted")
	}
}

// TestResumeIsBitIdentical is the invariant that makes checkpoints useful
// for the paper's long synchronous runs: (train 2k steps) equals
// (train k, checkpoint, restore, train k) bit-for-bit. Optimizer momentum
// is saved alongside the weights via the velocity sections.
func TestResumeIsBitIdentical(t *testing.T) {
	r := rng.New(3)
	x := tensor.RandNormal(r, 1, 16, 1, 4, 4)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 2
	}
	mk := func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 2, InC: 1, InH: 4, InW: 4, Width: 2, Seed: seed})
	}
	trainSteps := func(net *nn.Network, o *opt.SGD, steps int) {
		var loss nn.SoftmaxCrossEntropy
		for s := 0; s < steps; s++ {
			logits := net.Forward(x, true)
			loss.Forward(logits, labels)
			net.ZeroGrad()
			net.Backward(loss.Backward())
			o.Step(0.05)
		}
	}

	// Uninterrupted run.
	netA := mk(1)
	optA := opt.NewSGD(netA.Params(), opt.SGDConfig{Momentum: 0.9})
	trainSteps(netA, optA, 20)

	// Interrupted run: 10 steps, checkpoint weights + momentum, restore
	// into a fresh model/optimizer, 10 more steps.
	netB := mk(1)
	optB := opt.NewSGD(netB.Params(), opt.SGDConfig{Momentum: 0.9})
	trainSteps(netB, optB, 10)
	ck := FromNetwork(netB, 10)
	for i := range netB.Params() {
		ck.Add("velocity:"+netB.Params()[i].Name, optB.Velocity(i).Data)
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	netC := mk(99) // fresh, differently seeded
	optC := opt.NewSGD(netC.Params(), opt.SGDConfig{Momentum: 0.9})
	if err := loaded.ApplyToNetwork(netC); err != nil {
		t.Fatal(err)
	}
	for i, p := range netC.Params() {
		v := loaded.Find("velocity:" + p.Name)
		if v == nil {
			t.Fatalf("missing velocity for %s", p.Name)
		}
		copy(optC.Velocity(i).Data, v)
	}
	trainSteps(netC, optC, 10)

	pa, pc := netA.Params(), netC.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pc[i].W.Data[j] {
				t.Fatalf("resumed run diverged at %s[%d]: %v vs %v",
					pa[i].Name, j, pc[i].W.Data[j], pa[i].W.Data[j])
			}
		}
	}
}

// TestFaultyCompressedRunResumesBitIdentical is the engine-state round
// trip: a run with 1-bit compression (stateful error feedback) and a
// deterministic fault plan is interrupted mid-flight, its codec residuals
// and fault-plan cursor checkpointed, and the resumed run must match the
// uninterrupted one bit for bit — both the reduced values (which the
// residuals feed) and the per-step recovery schedule (which the step
// cursor keys).
func TestFaultyCompressedRunResumesBitIdentical(t *testing.T) {
	r := rng.New(7)
	x := tensor.RandNormal(r, 1, 24, 1, 4, 4)
	labels := make([]int, 24)
	for i := range labels {
		labels[i] = i % 3
	}
	mk := func(seed uint64) *nn.Network {
		return models.NewMLP(models.MicroConfig{Classes: 3, InC: 1, InH: 4, InW: 4, Width: 2, Seed: seed})
	}
	newEngine := func(codec *dist.OneBitCodec, startStep int64) *dist.Engine {
		replicas := []*nn.Network{mk(1), mk(2), mk(3)}
		return dist.NewEngine(dist.Config{
			Algo:        dist.Tree,
			Shards:      3,
			BucketElems: 40, // several buckets, several codec slots
			Codec:       codec,
			Faults:      &dist.FaultPlan{Seed: 11, DropRate: 0.4, StallRate: 0.3},
			StartStep:   startStep,
		}, replicas)
	}
	step := func(e *dist.Engine, o *opt.SGD) dist.CommStats {
		if _, err := e.ComputeGradient(x, labels); err != nil {
			t.Fatal(err)
		}
		o.Step(0.05)
		if err := e.BroadcastWeights(); err != nil {
			t.Fatal(err)
		}
		return e.StepStats()
	}

	const total, cut = 8, 4

	// Uninterrupted reference: weights and per-step schedules of all steps.
	refCodec := dist.NewOneBitCodec()
	ref := newEngine(refCodec, 0)
	refOpt := opt.NewSGD(ref.Master().Params(), opt.SGDConfig{Momentum: 0.9})
	var refStats []dist.CommStats
	for s := 0; s < total; s++ {
		refStats = append(refStats, step(ref, refOpt))
	}

	// Interrupted run: cut steps, then snapshot weights + optimizer
	// velocity + codec residuals + the step cursor.
	codecB := dist.NewOneBitCodec()
	runB := newEngine(codecB, 0)
	optB := opt.NewSGD(runB.Master().Params(), opt.SGDConfig{Momentum: 0.9})
	for s := 0; s < cut; s++ {
		step(runB, optB)
	}
	ck := FromNetwork(runB.Master(), cut)
	for i, p := range runB.Master().Params() {
		ck.Add("velocity:"+p.Name, optB.Velocity(i).Data)
	}
	ck.CaptureOneBit(codecB)
	runB.Close()
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Resume: fresh replicas, restored weights/velocity/residuals, and the
	// engine's step counter at the checkpointed cursor so the remaining
	// fault rolls line up.
	codecC := dist.NewOneBitCodec()
	if err := loaded.RestoreOneBit(codecC); err != nil {
		t.Fatal(err)
	}
	runC := newEngine(codecC, loaded.Step)
	defer runC.Close()
	if err := loaded.ApplyToNetwork(runC.Master()); err != nil {
		t.Fatal(err)
	}
	optC := opt.NewSGD(runC.Master().Params(), opt.SGDConfig{Momentum: 0.9})
	for i, p := range runC.Master().Params() {
		v := loaded.Find("velocity:" + p.Name)
		if v == nil {
			t.Fatalf("missing velocity for %s", p.Name)
		}
		copy(optC.Velocity(i).Data, v)
	}
	if err := runC.BroadcastWeights(); err != nil { // push restored weights to all replicas
		t.Fatal(err)
	}
	for s := cut; s < total; s++ {
		got := step(runC, optC)
		if got != refStats[s] {
			t.Fatalf("step %d schedule diverged after resume: %+v vs %+v", s, got, refStats[s])
		}
	}
	pa, pc := ref.Master().Params(), runC.Master().Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pc[i].W.Data[j] {
				t.Fatalf("resumed faulty run diverged at %s[%d]: %v vs %v",
					pa[i].Name, j, pc[i].W.Data[j], pa[i].W.Data[j])
			}
		}
	}
	ref.Close()

	// Negative control: resuming without the residuals (fresh codec state)
	// must NOT reproduce the uninterrupted run — the carried error is real
	// state, which is why the checkpoint captures it.
	codecD := dist.NewOneBitCodec()
	runD := newEngine(codecD, loaded.Step)
	defer runD.Close()
	if err := loaded.ApplyToNetwork(runD.Master()); err != nil {
		t.Fatal(err)
	}
	optD := opt.NewSGD(runD.Master().Params(), opt.SGDConfig{Momentum: 0.9})
	for i, p := range runD.Master().Params() {
		copy(optD.Velocity(i).Data, loaded.Find("velocity:"+p.Name))
	}
	if err := runD.BroadcastWeights(); err != nil {
		t.Fatal(err)
	}
	for s := cut; s < total; s++ {
		step(runD, optD)
	}
	same := true
	pd := runD.Master().Params()
	for i := range pc {
		for j := range pc[i].W.Data {
			if pc[i].W.Data[j] != pd[i].W.Data[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("dropping the codec residuals changed nothing — the capture is vacuous")
	}
}

// TestLossScaleRoundTrip: the scaler section survives serialization and
// restores the scaler to the exact scale and counters, and a checkpoint
// without the section leaves the target scaler untouched.
func TestLossScaleRoundTrip(t *testing.T) {
	s := opt.NewLossScaler(4096, 2)
	p := nn.NewParam("w", 8)
	p.G.Data[3] = float32(math.Inf(1))
	s.Update([]*nn.Param{p}) // overflow: halve to 2048
	p.G.Data[3] = 1e-3
	s.Update([]*nn.Param{p})
	s.Update([]*nn.Param{p}) // growth interval reached: back to 4096

	c := &Checkpoint{Step: 3}
	c.CaptureLossScale(s)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := opt.NewLossScaler(0, 2)
	if err := got.RestoreLossScale(r); err != nil {
		t.Fatal(err)
	}
	if r.Scale() != s.Scale() || r.Stats() != s.Stats() {
		t.Fatalf("restored scaler %+v, want %+v", r.Stats(), s.Stats())
	}

	// No section: the scaler keeps its fresh state.
	fresh := opt.NewLossScaler(0, 2)
	want := fresh.Stats()
	if err := (&Checkpoint{}).RestoreLossScale(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats() != want {
		t.Fatal("empty checkpoint modified the scaler")
	}

	// A corrupt section surfaces as an error.
	bad := &Checkpoint{}
	bad.Add("lossscale:state", []float32{99, 0, 0, 0})
	if err := bad.RestoreLossScale(opt.NewLossScaler(0, 2)); err == nil {
		t.Fatal("out-of-range scale state accepted")
	}
}
