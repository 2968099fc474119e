package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/synth"
)

// robustFixture builds a streaming threshold detector and a small
// mixed trial set (falls + ADLs) — fast enough for unit tests, hard
// enough that clean recall is high and false alarms are rare.
func robustFixture(t *testing.T) (*edge.Detector, []dataset.Trial) {
	t.Helper()
	clf, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	det, err := edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var trials []dataset.Trial
	for _, taskID := range []int{30, 31, 32, 34, 6, 7, 12, 13} {
		task, err := synth.TaskByID(taskID)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			subj := synth.NewSubject(200+rep, rng)
			trials = append(trials, synth.GenerateTrial(subj, task, rep, 6, rng))
		}
	}
	return det, trials
}

func TestEvaluateRobustnessCleanBaseline(t *testing.T) {
	det, trials := robustFixture(t)
	rep := EvaluateRobustnessParallel([]*edge.Detector{det}, trials, []fault.Kind{fault.KindDropout}, []float64{0.25}, 1)
	if rep.Clean.Fault != "clean" {
		t.Fatalf("clean point mislabelled: %q", rep.Clean.Fault)
	}
	if rep.Clean.FallTrials != 8 || rep.Clean.ADLTrials != 8 {
		t.Fatalf("trial partition wrong: %d falls, %d ADLs",
			rep.Clean.FallTrials, rep.Clean.ADLTrials)
	}
	if rep.Clean.Recall < 0.7 {
		t.Fatalf("clean recall %.2f implausibly low", rep.Clean.Recall)
	}
	if rep.Clean.Quarantined != 0 || rep.Clean.Missing != 0 || rep.Clean.BadScores != 0 {
		t.Fatalf("clean replay accumulated fault stats: %+v", rep.Clean)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(rep.Points))
	}
}

func TestEvaluateRobustnessModerateDropoutWithinFivePoints(t *testing.T) {
	det, trials := robustFixture(t)
	// Severity 0.25 is the "moderate field fault": 5 % dropout and
	// sparse NaN bursts. Acceptance: recall within 5 points of clean,
	// zero non-finite scores.
	rep := EvaluateRobustnessParallel([]*edge.Detector{det}, trials,
		[]fault.Kind{fault.KindDropout, fault.KindNaNBurst}, []float64{0.25}, 7)
	for _, p := range rep.Points {
		if d := p.DeltaRecall(rep.Clean); d > 5 {
			t.Errorf("%s sev %.2f: recall degraded %.1f points (clean %.2f → %.2f)",
				p.Fault, p.Severity, d, rep.Clean.Recall, p.Recall)
		}
		if p.BadScores != 0 {
			t.Errorf("%s: %d non-finite probabilities escaped the pipeline", p.Fault, p.BadScores)
		}
		if math.IsNaN(p.MeanLeadMS) || math.IsNaN(p.FalseAlarmsPerHour) {
			t.Errorf("%s: NaN leaked into aggregate metrics", p.Fault)
		}
	}
	// The injectors must actually have injected something.
	if rep.Points[0].Missing == 0 {
		t.Error("dropout sweep recorded no missing samples")
	}
	if rep.Points[1].Quarantined == 0 {
		t.Error("nan-burst sweep recorded no quarantined samples")
	}
}

func TestEvaluateRobustnessFullTaxonomyDefaults(t *testing.T) {
	det, trials := robustFixture(t)
	rep := EvaluateRobustnessParallel([]*edge.Detector{det}, trials, nil, nil, 3)
	wantPoints := len(fault.Kinds()) * 3 // default severities {0.1, 0.25, 0.5}
	if len(rep.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(rep.Points), wantPoints)
	}
	for _, p := range rep.Points {
		if p.BadScores != 0 {
			t.Errorf("%s sev %.2f: non-finite probability", p.Fault, p.Severity)
		}
		if p.Recall < 0 || p.Recall > 1 || p.InTime < 0 || p.InTime > 1 {
			t.Errorf("%s sev %.2f: rates outside [0,1]", p.Fault, p.Severity)
		}
	}
	// Determinism: the same seed reproduces the same sweep.
	rep2 := EvaluateRobustnessParallel([]*edge.Detector{det}, trials, nil, nil, 3)
	for i := range rep.Points {
		if rep.Points[i] != rep2.Points[i] {
			t.Fatalf("sweep not deterministic at %s sev %.2f",
				rep.Points[i].Fault, rep.Points[i].Severity)
		}
	}
}
