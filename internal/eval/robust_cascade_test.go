package eval

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/model"
)

// cascadeFixture builds n independent cascades sharing the plain
// fixture's streaming geometry, for paired plain-vs-cascade sweeps.
func cascadeFixture(t *testing.T, n int) []*cascade.Cascade {
	t.Helper()
	cs := make([]*cascade.Cascade, n)
	for i := range cs {
		primary, err := model.NewThreshold(model.KindThresholdAcc)
		if err != nil {
			t.Fatal(err)
		}
		fallback, err := model.NewThreshold(model.KindThresholdAcc)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 200, Overlap: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	return cs
}

// TestEvaluateCascadeRobustnessBeatsPlainUnderBlindingFaults is the
// tentpole property at evaluation level: under the faults that blind
// the base pipeline (gyro death, NaN bursts) at high severity, the
// cascade's miss rate is never worse than the plain detector's,
// because a degraded tier keeps deciding where the plain pipeline
// fails closed.
func TestEvaluateCascadeRobustnessBeatsPlainUnderBlindingFaults(t *testing.T) {
	det, trials := robustFixture(t)
	cs := cascadeFixture(t, 1)
	kinds := []fault.Kind{fault.KindGyroNaN, fault.KindGyroStuck, fault.KindNaNBurst}
	sevs := []float64{0.5}
	plain := EvaluateRobustnessParallel([]*edge.Detector{det}, trials, kinds, sevs, 21)
	casc := EvaluateCascadeRobustnessParallel(cs, trials, kinds, sevs, 21)
	if len(plain.Points) != len(casc.Points) {
		t.Fatalf("point count mismatch: %d vs %d", len(plain.Points), len(casc.Points))
	}
	for i := range casc.Points {
		cp, pp := casc.Points[i], plain.Points[i]
		if cp.Fault != pp.Fault || cp.Severity != pp.Severity {
			t.Fatalf("sweep order diverged: %s/%.2f vs %s/%.2f", cp.Fault, cp.Severity, pp.Fault, pp.Severity)
		}
		if cp.MissRate() > pp.MissRate() {
			t.Errorf("%s sev %.2f: cascade misses %.2f > plain %.2f",
				cp.Fault, cp.Severity, cp.MissRate(), pp.MissRate())
		}
		if cp.BadScores != 0 {
			t.Errorf("%s: non-finite probability escaped the cascade", cp.Fault)
		}
		if cp.FalseAlarmRate < 0 || cp.FalseAlarmRate > 1 {
			t.Errorf("%s: false-alarm rate %g outside [0,1]", cp.Fault, cp.FalseAlarmRate)
		}
		total := 0
		for _, n := range cp.TierEvals {
			total += n
		}
		if total == 0 {
			t.Errorf("%s sev %.2f: cascade recorded no decisions at all", cp.Fault, cp.Severity)
		}
	}
	// The gyro faults must actually push decisions off the primary: some
	// work has to land on the degraded tiers.
	for _, i := range []int{0, 1} {
		p := casc.Points[i]
		if p.TierEvals[cascade.TierFallback]+p.TierEvals[cascade.TierThreshold] == 0 {
			t.Errorf("%s sev %.2f: no degraded-tier decisions under a gyro fault", p.Fault, p.Severity)
		}
	}
	// Clean replay stays on the primary.
	if casc.Clean.TierEvals[cascade.TierFallback] != 0 {
		t.Errorf("clean replay used the fallback %d times", casc.Clean.TierEvals[cascade.TierFallback])
	}
}

// TestEvaluateCascadeRobustnessWorkerCountInvariance pins the
// determinism contract: the cascade sweep's report is bit-identical
// whether the conditions run on one worker or four.
func TestEvaluateCascadeRobustnessWorkerCountInvariance(t *testing.T) {
	_, trials := robustFixture(t)
	one := cascadeFixture(t, 1)
	four := cascadeFixture(t, 4)
	kinds := []fault.Kind{fault.KindDropout, fault.KindGyroNaN, fault.KindNaNBurst}
	sevs := []float64{0.25, 0.5}
	a := EvaluateCascadeRobustnessParallel(one, trials, kinds, sevs, 5)
	b := EvaluateCascadeRobustnessParallel(four, trials, kinds, sevs, 5)
	if a.Clean != b.Clean {
		t.Fatalf("clean point differs across worker counts:\n1: %+v\n4: %+v", a.Clean, b.Clean)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %s sev %.2f differs across worker counts:\n1: %+v\n4: %+v",
				a.Points[i].Fault, a.Points[i].Severity, a.Points[i], b.Points[i])
		}
	}
}
