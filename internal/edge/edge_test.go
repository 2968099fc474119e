package edge

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func TestSTM32F722Budget(t *testing.T) {
	d := STM32F722()
	if d.ClockHz != 216e6 {
		t.Fatalf("clock %g", d.ClockHz)
	}
	if d.FlashBytes != 256*1024 || d.RAMBytes != 256*1024 {
		t.Fatal("memory budget wrong")
	}
	if !d.FitsFlash(100*1024) || d.FitsFlash(300*1024) {
		t.Fatal("FitsFlash")
	}
	if !d.FitsRAM(16*1024) || d.FitsRAM(300*1024) {
		t.Fatal("FitsRAM")
	}
}

func TestModelCostCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ModelCost(m.Net, []int{40, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Hand count: 3 branches conv (36·16·5·3 = 8640 each = 25 920)
	// + dense 864·64 + 64·32 + 32·1 = 55 296 + 2048 + 32.
	want := 25920 + 55296 + 2048 + 32
	if c.MACs != want {
		t.Fatalf("CNN MACs = %d, want %d", c.MACs, want)
	}
	d := STM32F722()
	inf := d.InferenceTime(c)
	// The paper reports ≈4 ms; the cycle model must land in 1–10 ms.
	if inf < time.Millisecond || inf > 10*time.Millisecond {
		t.Fatalf("CNN inference %v outside 1–10 ms", inf)
	}
	// Real-time feasibility: inference + fusion must be far below the
	// 200 ms stride of a 400 ms window at 50 % overlap.
	total := inf + d.FusionTime(40)
	if total > 50*time.Millisecond {
		t.Fatalf("per-segment edge cost %v too slow for real time", total)
	}
}

func TestModelCostOrdering(t *testing.T) {
	// The recurrent baselines must cost more than the CNN — the
	// deployability argument of the paper's introduction.
	rng := rand.New(rand.NewSource(2))
	cost := func(k model.Kind) Cost {
		m, err := model.New(k, model.Config{WindowSamples: 40}, rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ModelCost(m.Net, []int{40, 9})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cnn, lstm, clstm := cost(model.KindCNN), cost(model.KindLSTM), cost(model.KindConvLSTM)
	if lstm.MACs <= cnn.MACs/2 {
		t.Fatalf("LSTM MACs %d unexpectedly cheap vs CNN %d", lstm.MACs, cnn.MACs)
	}
	if clstm.MACs == 0 || cnn.MACs == 0 {
		t.Fatal("zero cost")
	}
}

func TestDetectorConfigErrors(t *testing.T) {
	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	if _, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 5}); err == nil {
		t.Error("tiny window accepted")
	}
	if _, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 400, Overlap: 1}); err == nil {
		t.Error("overlap 1 accepted")
	}
}

func TestDetectorStride(t *testing.T) {
	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if det.Window != 40 || det.Step != 20 {
		t.Fatalf("window/step = %d/%d, want 40/20", det.Window, det.Step)
	}
	evals := 0
	for i := 0; i < 200; i++ {
		r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
		if r.Evaluated {
			evals++
		}
	}
	// First eval at sample 40, then every 20: samples 40,60,…,200 → 9.
	if evals != 9 {
		t.Fatalf("evaluated %d times in 200 samples, want 9", evals)
	}
}

func TestDetectorQuietStandingNoTrigger(t *testing.T) {
	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, _ := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 400, Overlap: 0.5})
	for i := 0; i < 500; i++ {
		r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
		if r.Triggered {
			t.Fatal("false trigger while standing still")
		}
	}
}

func TestDetectorSimulateFallTrialWithThreshold(t *testing.T) {
	// A trip fall has a deep free-fall phase: the threshold detector
	// must trigger before impact with enough lead time.
	rng := rand.New(rand.NewSource(3))
	subj := synth.NewSubject(1, rng)
	task, _ := synth.TaskByID(30)
	tr := synth.GenerateTrial(subj, task, 0, 6, rng)

	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, _ := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Overlap: 0.75})
	sim := det.Simulate(&tr)
	if !sim.Triggered {
		t.Fatal("threshold detector missed a hard trip fall")
	}
	if sim.FalseAlarm {
		t.Fatal("fall trial flagged as false alarm")
	}
	if sim.TriggerSample <= tr.FallOnset-40 {
		t.Fatalf("triggered at %d, long before onset %d", sim.TriggerSample, tr.FallOnset)
	}
}

func TestDetectorSimulateWalkNoFalseAlarm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	subj := synth.NewSubject(1, rng)
	task, _ := synth.TaskByID(6)
	tr := synth.GenerateTrial(subj, task, 0, 8, rng)

	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, _ := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Overlap: 0.75})
	sim := det.Simulate(&tr)
	if sim.FalseAlarm {
		t.Fatal("walking triggered the airbag")
	}
	if sim.Triggered {
		t.Fatal("trigger on an ADL trial")
	}
}

func TestDetectorResetIsolation(t *testing.T) {
	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, _ := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	// Saturate with free fall, then reset; a quiet stream must not
	// trigger from stale ring contents.
	for i := 0; i < 100; i++ {
		det.Push(imu.Vec3{}, imu.Vec3{})
	}
	det.Reset()
	for i := 0; i < 100; i++ {
		if r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{}); r.Triggered {
			t.Fatal("stale state after Reset")
		}
	}
}

func TestDetectorWindowAssemblyOrder(t *testing.T) {
	// Feed a monotone ramp on acc X and capture the classified window
	// via a probe classifier: rows must be oldest-first.
	probe := &probeClf{}
	det, _ := NewDetectorOf[float64](probe, DetectorConfig{WindowMS: 100, Overlap: 0})
	for i := 0; i < 10; i++ {
		det.Push(imu.Vec3{X: float64(i), Z: 1}, imu.Vec3{})
	}
	if probe.last == nil {
		t.Fatal("classifier never ran")
	}
	prev := probe.last.At(0, imu.AccX)
	for i := 1; i < 10; i++ {
		cur := probe.last.At(i, imu.AccX)
		if cur < prev {
			t.Fatalf("window rows out of order at %d: %g < %g", i, cur, prev)
		}
		prev = cur
	}
}

type probeClf struct{ last *tensor.Tensor }

func (p *probeClf) Name() string { return "probe" }
func (p *probeClf) Score(x *tensor.Tensor) float64 {
	p.last = x
	return 0
}

func TestSimulateLeadTime(t *testing.T) {
	// Hand-built trial: free fall from sample 100 to 160, impact 160.
	tr := dataset.Trial{
		Subject: 1, Task: 30, Source: dataset.SourceWorksite,
		FallOnset: 100, Impact: 160,
	}
	for i := 0; i < 300; i++ {
		s := imu.Sample{Acc: imu.Vec3{Z: 1}}
		if i >= 100 && i < 160 {
			s.Acc = imu.Vec3{Z: 0.1}
			s.Gyro = imu.Vec3{Y: 150}
		}
		tr.Samples = append(tr.Samples, s)
	}
	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, _ := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Overlap: 0.75})
	sim := det.Simulate(&tr)
	if !sim.Triggered {
		t.Fatal("no trigger on synthetic free fall")
	}
	if !sim.InTime {
		t.Fatalf("trigger at %d too late (lead %.0f ms)", sim.TriggerSample, sim.LeadTimeMS)
	}
	wantLead := float64(160-sim.TriggerSample) * 10
	if sim.LeadTimeMS != wantLead {
		t.Fatalf("lead time %.1f, want %.1f", sim.LeadTimeMS, wantLead)
	}
}

func TestEnergyPerSegment(t *testing.T) {
	d := STM32F722()
	rng := rand.New(rand.NewSource(10))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ModelCost(m.Net, []int{40, 9})
	if err != nil {
		t.Fatal(err)
	}
	// One 200 ms stride of fusion + one inference.
	uj := d.EnergyPerSegmentUJ(c, 20)
	// Plausibility: hundreds of µJ, far below a mJ — a 500 mWh
	// battery would run the detector for weeks.
	if uj < 10 || uj > 5000 {
		t.Fatalf("energy per segment %.1f µJ implausible", uj)
	}
}

type fakeLayer struct{}

func (fakeLayer) Name() string                                        { return "fake" }
func (fakeLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (fakeLayer) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (fakeLayer) Params() []*nn.Param                                 { return nil }
func (fakeLayer) OutShape(in []int) ([]int, error)                    { return in, nil }

func TestModelCostUnknownLayer(t *testing.T) {
	net := nn.NewNetwork(fakeLayer{})
	if _, err := ModelCost(net, []int{10, 9}); err == nil {
		t.Fatal("unknown layer type accepted by cost model")
	}
}

func TestModelCostShapeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(nn.NewDense(5, 2, rng))
	if _, err := ModelCost(net, []int{10, 9}); err == nil {
		t.Fatal("shape mismatch accepted by cost model")
	}
}
