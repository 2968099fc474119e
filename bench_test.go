package repro

// Benchmark harness: one benchmark (or benchmark group) per paper
// table/figure, measuring the computational kernel that regenerates
// it. The full row-by-row reproductions are printed by
// cmd/fallbench -exp <id>; these benches quantify their cost and
// guard against performance regressions in the hot paths.
//
//	E1 (Table III)  Benchmark_Table3_*
//	E2/E3 (Table IV) Benchmark_Table4_EventAnalysis
//	E4 (§IV-C)      Benchmark_Edge_*
//	E5 (Fig. 1)     Benchmark_Fig1_TrialSynthesis
//	E6 (Fig. 2)     Benchmark_Pipeline_EndToEnd
//	E7 (§III-A)     Benchmark_Sweep_Segmentation
//	E8 (Table I)    Benchmark_Table1_ThresholdScore
//	E9 (ablation)   Benchmark_Ablation_Augment

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/falldet"
	"repro/internal/augment"
	"repro/internal/cascade"
	"repro/internal/dataset"
	"repro/internal/dsp"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// Shared fixtures, built once.
var (
	fixOnce sync.Once
	fixData *dataset.Dataset
	fixSegs []dataset.Segment
)

func fixtures(b *testing.B) (*dataset.Dataset, []dataset.Segment) {
	b.Helper()
	fixOnce.Do(func() {
		d, err := falldet.Synthesize(falldet.SynthConfig{
			WorksiteSubjects: 3, KFallSubjects: 3, LongTaskSeconds: 5, Seed: 9,
		})
		if err != nil {
			panic(err)
		}
		segs, err := d.ExtractAll(dataset.SegmentConfig{WindowMS: 400, Overlap: 0.5})
		if err != nil {
			panic(err)
		}
		fixData, fixSegs = d, segs
	})
	return fixData, fixSegs
}

func randomWindow(T int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(T, imu.NumChannels)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return x
}

// ---- E5 (Fig. 1): trial synthesis ----

func Benchmark_Fig1_TrialSynthesis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	subj := synth.NewSubject(1, rng)
	task, _ := synth.TaskByID(30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := synth.GenerateTrial(subj, task, 0, 6, rng)
		if len(tr.Samples) == 0 {
			b.Fatal("empty trial")
		}
	}
}

// ---- Pre-processing kernels (shared by every experiment) ----

func Benchmark_Preprocess_ButterworthFiltFilt(b *testing.B) {
	f := dsp.MustButterworth(4, 5, 100)
	x := make([]float64, 3000) // a 30 s channel
	for i := range x {
		x[i] = rand.New(rand.NewSource(2)).NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.FiltFilt(x)
	}
}

func Benchmark_Preprocess_SensorFusion(b *testing.B) {
	fus := imu.MustNewFusion(100, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fus.Update(imu.Vec3{Z: 1}, imu.Vec3{X: 5})
	}
}

// ---- E7 (§III-A sweep): segmentation across the design grid ----

func Benchmark_Sweep_Segmentation(b *testing.B) {
	d, _ := fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, win := range []int{100, 200, 300, 400} {
			for _, ov := range []float64{0, 0.25, 0.5, 0.75} {
				if _, err := d.ExtractAll(dataset.SegmentConfig{WindowMS: win, Overlap: ov}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ---- E1 (Table III): per-model inference and training ----

func benchInference(b *testing.B, kind model.Kind, windowMS int) {
	rng := rand.New(rand.NewSource(3))
	T := windowMS / 10
	m, err := model.New(kind, model.Config{WindowSamples: T}, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := randomWindow(T, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(x)
	}
}

func Benchmark_Table3_Inference_MLP_400ms(b *testing.B)  { benchInference(b, model.KindMLP, 400) }
func Benchmark_Table3_Inference_LSTM_400ms(b *testing.B) { benchInference(b, model.KindLSTM, 400) }
func Benchmark_Table3_Inference_ConvLSTM_400ms(b *testing.B) {
	benchInference(b, model.KindConvLSTM, 400)
}
func Benchmark_Table3_Inference_CNN_200ms(b *testing.B) { benchInference(b, model.KindCNN, 200) }
func Benchmark_Table3_Inference_CNN_300ms(b *testing.B) { benchInference(b, model.KindCNN, 300) }
func Benchmark_Table3_Inference_CNN_400ms(b *testing.B) { benchInference(b, model.KindCNN, 400) }

func Benchmark_Table3_TrainStep_CNN(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	loss := nn.NewWeightedBCE(1, 10)
	x := randomWindow(40, 6)
	opt := nn.NewAdam(1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.ZeroGrad()
		p := m.Net.Forward(x, true).Data()[0]
		m.Net.Backward(loss.Grad(p, i%2))
		opt.Step(m.Net.Params(), 1)
	}
}

// ---- E15: data-parallel training (serial vs sharded mini-batches) ----

func benchParallelFit(b *testing.B, workers int) {
	train := make([]nn.Example, 192)
	for i := range train {
		train[i] = nn.Example{X: randomWindow(40, int64(100+i)), Y: i % 2}
	}
	val := train[:32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rand.New(rand.NewSource(17)))
		if err != nil {
			b.Fatal(err)
		}
		tr := nn.NewTrainer(m.Net, nn.NewAdam(1e-3),
			nn.TrainConfig{Epochs: 2, Patience: 2, BatchSize: 32, Workers: workers},
			rand.New(rand.NewSource(18)))
		tr.Replicate = m.Replicate
		if _, err := tr.Fit(train, val); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark_Parallel_Fit_Workers1(b *testing.B) { benchParallelFit(b, 1) }
func Benchmark_Parallel_Fit_Workers2(b *testing.B) { benchParallelFit(b, 2) }
func Benchmark_Parallel_Fit_Workers4(b *testing.B) { benchParallelFit(b, 4) }

// ---- E2/E3 (Table IV): event-level analysis ----

func Benchmark_Table4_EventAnalysis(b *testing.B) {
	_, segs := fixtures(b)
	scored := make([]eval.ScoredSegment, len(segs))
	rng := rand.New(rand.NewSource(7))
	for i := range segs {
		scored[i] = eval.ScoredSegment{Segment: segs[i], Score: rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.EventAnalysis(scored, 0.5)
	}
}

// ---- E8 (Table I): threshold baselines ----

func Benchmark_Table1_ThresholdScore(b *testing.B) {
	th, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		b.Fatal(err)
	}
	x := randomWindow(40, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Score(x)
	}
}

// ---- E4 (§IV-C): edge inference, quantized vs float, streaming ----

func edgeFixtures(b *testing.B) (*model.NetModel, *quant.QNetwork) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cal := make([]*tensor.Tensor, 8)
	for i := range cal {
		cal[i] = randomWindow(40, int64(10+i))
	}
	c, err := quant.Calibrate(m.Net, cal)
	if err != nil {
		b.Fatal(err)
	}
	qn, err := quant.Build(m.Net, c, []int{40, 9})
	if err != nil {
		b.Fatal(err)
	}
	return m, qn
}

func Benchmark_Edge_FloatInference(b *testing.B) {
	m, _ := edgeFixtures(b)
	x := randomWindow(40, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(x)
	}
}

func Benchmark_Edge_QuantizedInference(b *testing.B) {
	_, qn := edgeFixtures(b)
	x := randomWindow(40, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qn.Predict(x)
	}
}

func Benchmark_Edge_StreamingPush(b *testing.B) {
	th, _ := model.NewThreshold(model.KindThresholdAcc)
	det, err := edge.NewDetectorOf[float64](th, edge.DetectorConfig{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
}

func Benchmark_Edge_StreamingPushCNN(b *testing.B) {
	// The deployment-shaped push: full CNN classifier behind the
	// streaming pipeline. Steady state must report 0 allocs/op.
	m, _ := edgeFixtures(b)
	det, err := edge.NewDetectorOf[float64](m, edge.DetectorConfig{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3*det.Window; i++ { // fill the ring, warm layer scratch
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
}

func Benchmark_Edge_StreamingPushCNN_F32(b *testing.B) {
	// The same deployment-shaped push lowered to the float32 inference
	// width. Must also hold 0 allocs/op, and bench.sh gates its
	// speedup over the float64 row: single-precision halves the
	// ring/cache footprint, so losing the win means the lowered
	// kernels regressed.
	m, _ := edgeFixtures(b)
	det, err := edge.NewDetectorOf[float32](m, edge.DetectorConfig{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3*det.Window; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
}

func Benchmark_Edge_StreamingPushCNN_Fleet16(b *testing.B) {
	// Sixteen wearers of one model, as a server hosts them: every
	// detector is built from its own loaded copy of the CNN, and the
	// detectors are pushed round-robin. Detectors of bit-identical
	// parameters share one weight copy, so the head's weights stay in
	// cache from wearer to wearer; per push this should cost about
	// what the single-detector row does. Must hold 0 allocs/op.
	m, _ := edgeFixtures(b)
	var img bytes.Buffer
	if err := m.Net.Save(&img); err != nil {
		b.Fatal(err)
	}
	dets := make([]*edge.Detector, 16)
	for i := range dets {
		c, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Net.Load(bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
		if dets[i], err = edge.NewDetectorOf[float64](c, edge.DetectorConfig{WindowMS: 400, Overlap: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
	// A moving wrist, so the conv rows and the head's input are dense
	// and a decision reads the whole head.
	var acc, gyro [97]imu.Vec3
	for j := range acc {
		t := float64(j)
		acc[j] = imu.Vec3{X: 0.3 * math.Sin(0.21*t), Y: 0.2 * math.Cos(0.13*t), Z: 1 + 0.4*math.Sin(0.07*t)}
		gyro[j] = imu.Vec3{X: 40 * math.Cos(0.17*t), Y: 25 * math.Sin(0.11*t), Z: 10 * math.Sin(0.05*t)}
	}
	for i := 0; i < 3*dets[0].Window*len(dets); i++ { // fill every ring, warm layer scratch
		dets[i%len(dets)].Push(acc[i%len(acc)], gyro[i%len(gyro)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dets[i%len(dets)].Push(acc[i%len(acc)], gyro[i%len(gyro)])
	}
}

func Benchmark_Edge_Quantization(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cal := make([]*tensor.Tensor, 16)
	for i := range cal {
		cal[i] = randomWindow(40, int64(30+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := quant.Calibrate(m.Net, cal)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := quant.Build(m.Net, c, []int{40, 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E17 (cascade): supervised degradation, push cost per tier ----

func cascadeFixture(b *testing.B) *cascade.Cascade {
	b.Helper()
	rng := rand.New(rand.NewSource(51))
	primary, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := model.New(model.KindCNNAccel, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchCascadePush measures the steady-state push cost with the
// supervisor settled at one tier. Every variant must report 0
// allocs/op: the real-time contract holds at every degradation level.
func benchCascadePush(b *testing.B, want cascade.Tier, push func(c *cascade.Cascade, i int) cascade.Decision) {
	c := cascadeFixture(b)
	n := 0
	for i := 0; i < 3*c.Window(); i++ { // fill the ring, warm the primary's scratch
		c.Push(imu.Vec3{Z: 1 + 0.01*float64(i%7)}, imu.Vec3{X: float64(i % 5)})
		n++
	}
	for i := 0; i < 4*c.Window(); i++ { // enter the fault regime, warm the deciding tier
		push(c, n)
		n++
	}
	if got := c.SupervisorTier(); got != want {
		b.Fatalf("supervisor settled at %v, want %v", got, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(c, n)
		n++
	}
}

func Benchmark_Cascade_PushPrimary(b *testing.B) {
	benchCascadePush(b, cascade.TierPrimary, func(c *cascade.Cascade, i int) cascade.Decision {
		return c.Push(imu.Vec3{Z: 1 + 0.01*float64(i%7)}, imu.Vec3{X: float64(i % 5)})
	})
}

func Benchmark_Cascade_PushPrimary_F32(b *testing.B) {
	// The healthy-tier push with both CNN tiers lowered to float32 —
	// the width a deployed cascade runs at. Same 0 allocs/op contract.
	rng := rand.New(rand.NewSource(51))
	primary, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := model.New(model.KindCNNAccel, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cascade.NewOf[float32](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	push := func(i int) cascade.Decision {
		return c.Push(imu.Vec3{Z: 1 + 0.01*float64(i%7)}, imu.Vec3{X: float64(i % 5)})
	}
	n := 0
	for i := 0; i < 7*c.Window(); i++ {
		push(n)
		n++
	}
	if got := c.SupervisorTier(); got != cascade.TierPrimary {
		b.Fatalf("supervisor settled at %v, want %v", got, cascade.TierPrimary)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(n)
		n++
	}
}

func Benchmark_Cascade_PushFallback(b *testing.B) {
	nan := math.NaN()
	benchCascadePush(b, cascade.TierFallback, func(c *cascade.Cascade, i int) cascade.Decision {
		return c.Push(imu.Vec3{Z: 1 + 0.01*float64(i%7)}, imu.Vec3{X: nan})
	})
}

func Benchmark_Cascade_PushThreshold(b *testing.B) {
	nan := math.NaN()
	bad := imu.Vec3{X: nan, Y: nan, Z: nan}
	benchCascadePush(b, cascade.TierThreshold, func(c *cascade.Cascade, i int) cascade.Decision {
		return c.Push(bad, bad)
	})
}

// ---- E9 (ablation): augmentation throughput ----

func Benchmark_Ablation_Augment(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randomWindow(40, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		augment.TimeWarp(x, augment.TimeWarpConfig{}, rng)
		augment.WindowWarp(x, augment.WindowWarpConfig{}, rng)
	}
}

// ---- E6 (Fig. 2): end-to-end pipeline ----

func Benchmark_Pipeline_EndToEnd(b *testing.B) {
	// One full miniature run per iteration: synthesise → align →
	// filter → segment → train briefly → classify. Expensive by
	// nature; run with -benchtime=1x for a single sample.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := falldet.Synthesize(falldet.SynthConfig{
			WorksiteSubjects: 2, KFallSubjects: 2,
			Tasks: []int{1, 6, 30}, LongTaskSeconds: 4, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := falldet.Config{
			WindowMS: 200, Overlap: 0.5,
			Epochs: 2, Patience: 2, ValSubjects: 1, Seed: int64(i),
		}
		det, err := falldet.Train(d, falldet.KindCNN, cfg)
		if err != nil {
			b.Fatal(err)
		}
		segs, err := falldet.ExtractSegments(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		det.Evaluate(segs[:min(100, len(segs))])
	}
}

// ---- E11 (PreFallKD extension): distillation step ----

func Benchmark_KD_DistillStep(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	teacher, err := model.New(model.KindCNN, model.Config{WindowSamples: 20}, rng)
	if err != nil {
		b.Fatal(err)
	}
	student, err := model.New(model.KindDistilled, model.Config{WindowSamples: 20}, rng)
	if err != nil {
		b.Fatal(err)
	}
	train := make([]nn.Example, 16)
	for i := range train {
		train[i] = nn.Example{X: randomWindow(20, int64(50+i)), Y: i % 2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := model.DistillConfig{Train: nn.TrainConfig{Epochs: 1, Patience: 1, BatchSize: 8}}
		if err := model.Distill(teacher, student, train, nil, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E12 (continuous wear): session synthesis and replay ----

func Benchmark_Session_Generate(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	subj := synth.NewSubject(1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.GenerateSession(subj, synth.SessionConfig{Minutes: 1}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark_Session_Replay(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	subj := synth.NewSubject(1, rng)
	s, err := synth.GenerateSession(subj, synth.SessionConfig{Minutes: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	th, _ := model.NewThreshold(model.KindThresholdAcc)
	det, err := edge.NewDetectorOf[float64](th, edge.DetectorConfig{WindowMS: 400, Overlap: 0.75})
	if err != nil {
		b.Fatal(err)
	}
	bag := edge.NewAirbag(edge.AirbagConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.EvaluateSession(det, bag, s)
	}
}

func Benchmark_Table3_Inference_CNNBiGRU_400ms(b *testing.B) {
	benchInference(b, model.KindCNNBiGRU, 400)
}

// ---- E18 (serving): runtime overhead per served sample ----

func serveFixture(b *testing.B, snapshotEvery int) (*serve.Runtime, *serve.Session) {
	b.Helper()
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	rt := serve.New(serve.Config{QueueLen: 1024, SnapshotEvery: snapshotEvery})
	return rt, rt.Open(c)
}

// benchServePush measures one sample through the full serving path:
// ingress ring, session worker, cascade, outbox. The steady-state
// variant (SnapshotEvery=0) must stay allocation-free — it is the
// per-sample overhead the runtime adds on top of Benchmark_Cascade_*.
func benchServePush(b *testing.B, snapshotEvery int) {
	rt, s := serveFixture(b, snapshotEvery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph := float64(i) * 0.13
		s.Push(imu.Vec3{X: 0.05 * math.Sin(ph), Z: 1 + 0.02*math.Cos(ph)},
			imu.Vec3{X: 3 * math.Sin(ph), Y: 2 * math.Cos(ph)})
		if i%512 == 0 {
			s.Quiesce() // keep the ring from capping the measurement
		}
	}
	s.Quiesce()
	b.StopTimer()
	rt.Close()
}

func Benchmark_Serve_SessionPush(b *testing.B) { benchServePush(b, 0) }

func Benchmark_Serve_SessionPushSnapshot(b *testing.B) { benchServePush(b, 256) }

// stubPipe is a serve.Pipeline that does no work: it counts samples,
// decides on every 20th (the stride of a 400 ms window at 50 %
// overlap) and snapshots one byte, so the runtime's outbox and
// snapshot traffic match a served cascade's.
type stubPipe int

func (p *stubPipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	*p++
	return cascade.Decision{Evaluated: *p%20 == 0}
}

func (p *stubPipe) PushMissing(n int) cascade.Decision {
	*p += stubPipe(n)
	return cascade.Decision{Evaluated: *p%20 == 0}
}

func (p *stubPipe) AppendSnapshot(dst []byte) ([]byte, error) { return append(dst, byte(*p)), nil }

func (p *stubPipe) RestoreFresh(r io.Reader) error {
	_, err := io.Copy(io.Discard, r)
	return err
}

func (p *stubPipe) Reset()                        { *p = 0 }
func (p *stubPipe) SetTierCeiling(t cascade.Tier) {}

// Benchmark_Serve_SessionPushStub is the serving runtime alone at the
// paper's cadence: per op, one sample is pushed into a session around
// a no-op pipeline, quiesced (the caller drains the ring itself) and
// its decisions drained, with servebench's session configuration. It
// is the hand-off every served sample pays on top of the cascade, the
// Go-bench twin of servebench's serve_hop_us. Steady state must stay
// at 0 allocs/op and 0 B/op.
func Benchmark_Serve_SessionPushStub(b *testing.B) {
	rt := serve.New(serve.Config{QueueLen: 64, OutboxLen: 64, SnapshotEvery: 256})
	s := rt.Open(new(stubPipe))
	got := make([]cascade.Decision, 0, 64)
	acc, gyro := imu.Vec3{Z: 1}, imu.Vec3{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(acc, gyro)
		s.Quiesce()
		got = s.DrainDecisions(got[:0])
	}
	b.StopTimer()
	rt.Close()
}

// benchServePushCNN measures one sample through the served path into
// the real three-tier CNN cascade (CNN primary, accel-only CNN
// fallback, threshold floor) at width S, at the paper's cadence: each
// sample is pushed and then quiesced, as a lock-step client waits for
// every packet's decision. The Quiesce caller drains the ring itself,
// so this row is the caller-runs hand-off plus a served CNN decision
// every stride. The supervisor is warmed to the primary tier first.
// Steady state must stay at 0 allocs/op and 0 B/op.
func benchServePushCNN[S tensor.Scalar](b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	primary, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := model.New(model.KindCNNAccel, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cascade.NewOf[S](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	sample := func(i int) (imu.Vec3, imu.Vec3) {
		return imu.Vec3{Z: 1 + 0.01*float64(i%7)}, imu.Vec3{X: float64(i % 5)}
	}
	n := 0
	for ; n < 7*c.Window(); n++ {
		c.Push(sample(n))
	}
	if got := c.SupervisorTier(); got != cascade.TierPrimary {
		b.Fatalf("supervisor settled at %v, want %v", got, cascade.TierPrimary)
	}
	rt := serve.New(serve.Config{QueueLen: 64})
	s := rt.Open(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(sample(n))
		s.Quiesce()
		n++
	}
	b.StopTimer()
	if d := s.DrainDecisions(nil); len(d) > 0 && d[len(d)-1].Tier != cascade.TierPrimary {
		b.Fatalf("served decisions from %v, want %v", d[len(d)-1].Tier, cascade.TierPrimary)
	}
	rt.Close()
}

func Benchmark_Serve_SessionPushCNN(b *testing.B) { benchServePushCNN[float64](b) }

func Benchmark_Serve_SessionPushCNN_F32(b *testing.B) { benchServePushCNN[float32](b) }

func Benchmark_Serve_SessionPush_F32(b *testing.B) {
	// The served push with a float32-lowered cascade behind the same
	// runtime: Pipeline is an interface, so the session machinery is
	// width-blind — this row isolates the runtime overhead at the
	// deployment width and holds the same 0 allocs/op contract.
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cascade.NewOf[float32](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	rt := serve.New(serve.Config{QueueLen: 1024})
	s := rt.Open(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph := float64(i) * 0.13
		s.Push(imu.Vec3{X: 0.05 * math.Sin(ph), Z: 1 + 0.02*math.Cos(ph)},
			imu.Vec3{X: 3 * math.Sin(ph), Y: 2 * math.Cos(ph)})
		if i%512 == 0 {
			s.Quiesce()
		}
	}
	s.Quiesce()
	b.StopTimer()
	rt.Close()
}

// ---- E27 (serving set-up): loading the cascade's networks ----

// Benchmark_Network_Load loads the primary and fallback CNN images,
// as every served session does at set-up, from a bytes.Reader into
// networks built once beforehand, so model.New's initialisation is not
// timed: the row is the envelope's SHA-256 check plus the weight
// decoder, validation and copy.
func Benchmark_Network_Load(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	var nets [2]*nn.Network
	var imgs [2][]byte
	for i, kind := range []model.Kind{model.KindCNN, model.KindCNNAccel} {
		m, err := model.New(kind, model.Config{WindowSamples: 40}, rng)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Net.Save(&buf); err != nil {
			b.Fatal(err)
		}
		nets[i], imgs[i] = m.Net, buf.Bytes()
	}
	var r bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, net := range nets {
			r.Reset(imgs[j])
			if err := net.Load(&r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
