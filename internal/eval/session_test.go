package eval

import (
	"math/rand"
	"testing"

	"repro/internal/edge"
	"repro/internal/model"
	"repro/internal/synth"
)

func TestEvaluateSessionWithThresholdDetector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	subj := synth.NewSubject(1, rng)
	s, err := synth.GenerateSession(subj, synth.SessionConfig{
		Minutes:  2,
		FallRate: 60, // compressed so the short session contains falls
		Tasks:    []int{1, 6, 8, 30, 31, 34},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Falls()) == 0 {
		t.Skip("no falls drawn in this session; seed-dependent")
	}

	clf, _ := model.NewThreshold(model.KindThresholdAcc)
	det, err := edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	bag := edge.NewAirbag(edge.AirbagConfig{RefractorySamples: 500})
	out := EvaluateSession(det, bag, s)

	if out.Falls != len(s.Falls()) {
		t.Fatalf("falls %d, want %d", out.Falls, len(s.Falls()))
	}
	if out.Hours <= 0 {
		t.Fatal("zero duration")
	}
	if out.Detected == 0 {
		t.Fatal("threshold detector missed every session fall (free-fall phases present)")
	}
	if out.Detected > out.Falls {
		t.Fatal("detected more falls than exist")
	}
	if out.InTime > out.Detected {
		t.Fatal("in-time exceeds detected")
	}
	if len(out.LeadTimesMS) != out.Detected {
		t.Fatal("lead time count mismatch")
	}
	if out.MeanLeadMS() < 0 {
		t.Fatal("negative mean lead")
	}
	if out.FalseAlarmsPerHour < 0 {
		t.Fatal("negative FP rate")
	}
	// Conservation: every firing is either a detection or a false alarm.
	if out.Detected+out.FalseAlarms != len(out.Firings) {
		t.Fatalf("%d detections + %d false alarms != %d firings",
			out.Detected, out.FalseAlarms, len(out.Firings))
	}
}

func TestEvaluateSessionDebounceReducesFalseAlarms(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	subj := synth.NewSubject(2, rng)
	// ADL-heavy session with the jumpy tasks that cause false alarms.
	s, err := synth.GenerateSession(subj, synth.SessionConfig{
		Minutes:  2,
		FallRate: -1, // no falls: every firing is a false alarm
		Tasks:    []int{4, 10, 15, 19, 44, 6},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(debounce int) int {
		clf, _ := model.NewThreshold(model.KindThresholdAcc)
		det, err := edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.75})
		if err != nil {
			t.Fatal(err)
		}
		bag := edge.NewAirbag(edge.AirbagConfig{Debounce: debounce, RefractorySamples: 200})
		return EvaluateSession(det, bag, s).FalseAlarms
	}
	fa1, fa3 := run(1), run(3)
	if fa3 > fa1 {
		t.Fatalf("debounce-3 false alarms %d > debounce-1 %d", fa3, fa1)
	}
}

func TestEvaluateSessionDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	subj := synth.NewSubject(3, rng)
	s, err := synth.GenerateSession(subj, synth.SessionConfig{Minutes: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func() SessionOutcome {
		clf, _ := model.NewThreshold(model.KindThresholdGyro)
		det, _ := edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.5})
		bag := edge.NewAirbag(edge.AirbagConfig{})
		return EvaluateSession(det, bag, s)
	}
	a, b := run(), run()
	if a.Detected != b.Detected || a.FalseAlarms != b.FalseAlarms || len(a.Firings) != len(b.Firings) {
		t.Fatal("session evaluation not deterministic")
	}
}
