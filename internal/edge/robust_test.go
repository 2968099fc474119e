package edge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/synth"
)

func newThresholdDetector(t *testing.T, cfg DetectorConfig) *Detector {
	t.Helper()
	clf, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetectorOf[float64](clf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestPushQuarantinesNonFinite(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	for i := 0; i < 30; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
	r := det.Push(imu.Vec3{X: math.NaN(), Z: 1}, imu.Vec3{})
	if !r.Quarantined {
		t.Fatal("NaN sample not quarantined")
	}
	r = det.Push(imu.Vec3{Z: math.Inf(1)}, imu.Vec3{})
	if !r.Quarantined {
		t.Fatal("Inf sample not quarantined")
	}
	if st := det.Stats(); st.Quarantined != 2 {
		t.Fatalf("Quarantined = %d, want 2", st.Quarantined)
	}
	// The stream continues and probabilities stay finite.
	for i := 0; i < 100; i++ {
		r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
		if r.Evaluated && (math.IsNaN(r.Probability) || math.IsInf(r.Probability, 0)) {
			t.Fatal("non-finite probability after quarantine")
		}
	}
}

func TestPushClampsFullScale(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	// Both components exceed the ±16 g / ±2000 deg/s full scale.
	r := det.Push(imu.Vec3{Z: 100}, imu.Vec3{X: 9000})
	if !r.Clamped {
		t.Fatal("over-range sample not flagged as clamped")
	}
	if det.Stats().Clamped != 1 {
		t.Fatal("Clamped counter not incremented")
	}
	if r2 := det.Push(imu.Vec3{Z: 1}, imu.Vec3{}); r2.Clamped {
		t.Fatal("in-range sample flagged as clamped")
	}
}

func TestShortGapBridgedKeepsEvaluating(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	evals := 0
	for i := 0; i < 200; i++ {
		var r Result
		if i%50 == 25 { // isolated single-sample drops
			r = det.PushMissing(1)
		} else {
			r = det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
		}
		if r.Evaluated {
			evals++
		}
	}
	if evals == 0 {
		t.Fatal("bridged gaps suppressed all evaluation")
	}
	st := det.Stats()
	if st.Missing != 4 || st.Bridged != 4 || st.Holdoffs != 0 {
		t.Fatalf("stats %+v: want 4 missing, all bridged, no holdoffs", st)
	}
}

func TestLongGapForcesWarmupHoldoff(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	for i := 0; i < 60; i++ { // fill the ring, evaluations flowing
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
	det.PushMissing(30) // far beyond the bridge limit
	if det.Stats().Holdoffs != 1 {
		t.Fatalf("Holdoffs = %d, want 1", det.Stats().Holdoffs)
	}
	// The next Window-1 fresh samples must not evaluate: the ring
	// still holds pre-gap rows.
	for i := 0; i < det.Window-1; i++ {
		if r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{}); r.Evaluated {
			t.Fatalf("evaluated %d samples after a long gap (window %d)", i+1, det.Window)
		}
	}
	// Within one further stride the pipeline must evaluate again.
	evaluated := false
	for i := 0; i < det.Window+det.Step; i++ {
		if r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{}); r.Evaluated {
			evaluated = true
			break
		}
	}
	if !evaluated {
		t.Fatal("pipeline never recovered after the holdoff")
	}
}

func TestHealthStateMachine(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	if det.Health() != HealthHealthy {
		t.Fatal("fresh detector not healthy")
	}
	for i := 0; i < det.Window; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
	if det.Health() != HealthHealthy {
		t.Fatal("clean stream not healthy")
	}
	// A single missing sample degrades.
	det.PushMissing(1)
	if det.Health() != HealthDegraded {
		t.Fatalf("health after one gap = %v, want degraded", det.Health())
	}
	// Losing more than a quarter of the window faults.
	det.PushMissing(det.Window / 2)
	if det.Health() != HealthFaulted {
		t.Fatalf("health after massive loss = %v, want faulted", det.Health())
	}
	// While faulted, stride completions must not evaluate.
	for i := 0; i < 2; i++ {
		if r := det.Push(imu.Vec3{Z: 1}, imu.Vec3{}); r.Evaluated {
			t.Fatal("evaluated while faulted")
		}
	}
	// A clean window of samples restores full health.
	for i := 0; i < det.Window+1; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{})
	}
	if det.Health() != HealthHealthy {
		t.Fatalf("health after recovery = %v, want healthy", det.Health())
	}
	// Reset clears counters and health.
	det.PushMissing(det.Window)
	det.Reset()
	if det.Health() != HealthHealthy || det.Stats() != (FaultStats{}) {
		t.Fatal("Reset did not clear health/stats")
	}
}

func TestThresholdSentinels(t *testing.T) {
	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	d1, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Threshold != DefaultThreshold {
		t.Fatalf("unset threshold resolved to %g, want %g", d1.Threshold, DefaultThreshold)
	}
	d2, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Threshold: ThresholdAlways})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Threshold != 0 {
		t.Fatalf("ThresholdAlways resolved to %g, want 0", d2.Threshold)
	}
	// Threshold 0 really does trigger on every evaluated window.
	for i := 0; i < 40; i++ {
		r := d2.Push(imu.Vec3{Z: 1}, imu.Vec3{})
		if r.Evaluated && !r.Triggered {
			t.Fatal("threshold 0 did not trigger on an evaluated window")
		}
	}
	d3, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if d3.Threshold != 0.9 {
		t.Fatalf("explicit threshold mangled: %g", d3.Threshold)
	}
}

// TestModerateFaultsPreserveRecall is the acceptance gate: ≤5 %
// dropout and sparse NaN bursts must cost at most 5 recall points
// versus clean, with zero panics and zero non-finite probabilities.
func TestModerateFaultsPreserveRecall(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.75})

	// A batch of synthetic fall trials across fall tasks.
	rng := rand.New(rand.NewSource(5))
	var trials []dataset.Trial
	for _, taskID := range []int{20, 23, 28, 30, 31, 32, 33, 34} {
		task, err := synth.TaskByID(taskID)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			subj := synth.NewSubject(100+rep, rng)
			trials = append(trials, synth.GenerateTrial(subj, task, rep, 6, rng))
		}
	}

	recall := func(inj fault.Injector) float64 {
		hit := 0
		for i := range trials {
			sim := det.SimulateFaulty(&trials[i], inj)
			if det.Stats().BadScores != 0 {
				t.Fatal("non-finite probability under fault injection")
			}
			if sim.Triggered {
				hit++
			}
		}
		return float64(hit) / float64(len(trials))
	}

	clean := recall(nil)
	if clean < 0.7 {
		t.Fatalf("clean recall %.2f too low for the gate to be meaningful", clean)
	}
	for _, tc := range []struct {
		name string
		inj  fault.Injector
	}{
		{"5% dropout", fault.NewDropout(0.05, 3, 42)},
		{"nan bursts", fault.NewNaNBurst(0.005, 3, 42)},
		{"dropout+nan", fault.Chain{fault.NewDropout(0.05, 3, 1), fault.NewNaNBurst(0.005, 3, 2)}},
	} {
		got := recall(tc.inj)
		if clean-got > 0.05 {
			t.Errorf("%s: recall %.3f vs clean %.3f — degraded more than 5 points",
				tc.name, got, clean)
		}
	}
}

// vary returns a small per-sample wiggle so that a deliberately live
// channel never trips the bit-identical stuck detector.
func vary(i int) float64 { return 1e-4 * float64(i%7) }

func TestGyroHoldKeepsAccGroupLive(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	for i := 0; i < 30; i++ {
		det.Push(imu.Vec3{Z: 1 + vary(i)}, imu.Vec3{X: 0.5 + vary(i)})
	}
	// Gyro dies; accelerometer keeps delivering good data.
	bad := imu.Vec3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()}
	for i := 0; i < 60; i++ {
		r := det.Push(imu.Vec3{Z: 1 + vary(i)}, bad)
		if r.Quarantined {
			t.Fatal("gyro-only failure must hold, not quarantine the whole sample")
		}
	}
	st := det.Stats()
	if st.GyroHeld != 60 {
		t.Fatalf("GyroHeld = %d, want 60", st.GyroHeld)
	}
	if st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", st.Quarantined)
	}
	gh := det.GroupHealth()
	if gh.Acc != HealthHealthy {
		t.Fatalf("acc group %v, want healthy under a gyro-only fault", gh.Acc)
	}
	if gh.Gyro != HealthFaulted || gh.Euler != HealthFaulted {
		t.Fatalf("gyro/euler groups %v/%v, want faulted", gh.Gyro, gh.Euler)
	}
	// The overall pipeline is conservative: a window whose gyro and
	// Euler columns are reconstructions must not feed the primary
	// three-branch model.
	if det.Health() != HealthFaulted {
		t.Fatalf("overall health %v, want faulted", det.Health())
	}
	// The ring must stay finite despite the held gyro.
	for _, v := range det.ring {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite ring contents under gyro hold")
		}
	}
}

func TestStuckGyroFlagsGroupOnly(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	frozen := imu.Vec3{X: 1.25, Y: -0.5, Z: 3}
	for i := 0; i < 60; i++ {
		det.Push(imu.Vec3{Z: 1 + vary(i)}, frozen)
	}
	gh := det.GroupHealth()
	if gh.Acc != HealthHealthy {
		t.Fatalf("acc group %v, want healthy", gh.Acc)
	}
	if gh.Gyro == HealthHealthy || gh.Euler == HealthHealthy {
		t.Fatalf("gyro/euler groups %v/%v, want flagged for a frozen gyro", gh.Gyro, gh.Euler)
	}
	if det.Stats().GyroStuck == 0 {
		t.Fatal("GyroStuck counter not incremented")
	}
	if gh.Worst() != gh.Gyro && gh.Worst() != gh.Euler {
		t.Fatalf("Worst() = %v inconsistent with %+v", gh.Worst(), gh)
	}
}

func TestStuckAccFlagsAccAndEuler(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	frozen := imu.Vec3{Z: 1.0125}
	for i := 0; i < 60; i++ {
		det.Push(frozen, imu.Vec3{X: vary(i)})
	}
	gh := det.GroupHealth()
	if gh.Acc == HealthHealthy || gh.Euler == HealthHealthy {
		t.Fatalf("acc/euler groups %v/%v, want flagged for a frozen accelerometer", gh.Acc, gh.Euler)
	}
	if gh.Gyro != HealthHealthy {
		t.Fatalf("gyro group %v, want healthy", gh.Gyro)
	}
	if det.Stats().AccStuck == 0 {
		t.Fatal("AccStuck counter not incremented")
	}
}

func TestIngestMatchesPushWithoutEvaluating(t *testing.T) {
	mk := func() *Detector {
		return newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	}
	pushDet, ingDet := mk(), mk()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		acc := imu.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: 1 + rng.NormFloat64()}
		gyro := imu.Vec3{X: 20 * rng.NormFloat64(), Y: 20 * rng.NormFloat64(), Z: 20 * rng.NormFloat64()}
		var pr, ir Result
		if i%37 == 5 {
			pr = pushDet.PushMissing(1)
			ir = ingDet.IngestMissing(1)
		} else {
			pr = pushDet.Push(acc, gyro)
			ir = ingDet.Ingest(acc, gyro)
		}
		if ir.Evaluated {
			t.Fatal("Ingest must never evaluate")
		}
		if ir.Health != pr.Health || ir.Quarantined != pr.Quarantined {
			t.Fatalf("sample %d: ingest result %+v diverges from push %+v", i, ir, pr)
		}
		if ingDet.StrideReady() != pushDet.StrideReady() {
			t.Fatalf("sample %d: StrideReady diverges", i)
		}
		if pr.Evaluated {
			p, ok := ingDet.ScoreWindow(ingDet.clf)
			if !ok || p != pr.Probability {
				t.Fatalf("sample %d: ScoreWindow = %v (ok=%v), Push evaluated %v",
					i, p, ok, pr.Probability)
			}
		}
	}
	if pushDet.stats != ingDet.stats {
		t.Fatalf("stats diverge: push %+v vs ingest %+v", pushDet.stats, ingDet.stats)
	}
}
