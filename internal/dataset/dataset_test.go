package dataset

import (
	"math"
	"testing"

	"repro/internal/imu"
)

// mkTrial builds a trial of n constant samples.
func mkTrial(subject, task int, n int, fall bool) Trial {
	t := Trial{
		Subject:   subject,
		Task:      task,
		Index:     0,
		Source:    SourceWorksite,
		FallOnset: -1,
		Impact:    -1,
	}
	for i := 0; i < n; i++ {
		t.Samples = append(t.Samples, imu.Sample{Acc: imu.Vec3{Z: 1}})
	}
	if fall {
		t.FallOnset = n / 2
		t.Impact = n/2 + 50
	}
	return t
}

func TestTrialIsFallAndTruncation(t *testing.T) {
	adl := mkTrial(1, 6, 500, false)
	if adl.IsFall() {
		t.Fatal("ADL marked as fall")
	}
	if adl.TruncatedFallEnd() != -1 {
		t.Fatal("ADL has truncated end")
	}
	fall := mkTrial(1, 30, 500, true)
	if !fall.IsFall() {
		t.Fatal("fall not marked")
	}
	// Impact at 300, inflation 150 ms = 15 samples → 285.
	if got := fall.TruncatedFallEnd(); got != 285 {
		t.Fatalf("TruncatedFallEnd = %d, want 285", got)
	}
}

func TestTruncatedFallEndDegenerate(t *testing.T) {
	tr := mkTrial(1, 21, 400, true)
	tr.FallOnset = 200
	tr.Impact = 210 // 100 ms fall, shorter than the inflation window
	if got := tr.TruncatedFallEnd(); got != 200 {
		t.Fatalf("degenerate TruncatedFallEnd = %d, want onset 200", got)
	}
}

func TestTrialValidate(t *testing.T) {
	ok := mkTrial(1, 30, 300, true)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := Trial{FallOnset: -1, Impact: -1}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty trial validated")
	}
	bad := mkTrial(1, 30, 100, true)
	bad.Impact = 200
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range impact validated")
	}
	inconsistent := mkTrial(1, 6, 100, false)
	inconsistent.FallOnset = 10
	if err := inconsistent.Validate(); err == nil {
		t.Fatal("half-annotated trial validated")
	}
}

func TestChannelRoundTrip(t *testing.T) {
	tr := mkTrial(1, 6, 10, false)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) * 0.5
	}
	tr.SetChannel(imu.GyroY, x)
	got := tr.Channel(imu.GyroY)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("channel round trip differs at %d", i)
		}
	}
	// Other channels untouched.
	if tr.Samples[3].Acc.Z != 1 {
		t.Fatal("SetChannel leaked into other channels")
	}
}

func TestSetChannelLengthPanics(t *testing.T) {
	tr := mkTrial(1, 6, 10, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.SetChannel(0, make([]float64, 5))
}

func TestDatasetSubjectsAndFilter(t *testing.T) {
	d := &Dataset{Trials: []Trial{
		mkTrial(3, 6, 100, false),
		mkTrial(1, 30, 300, true),
		mkTrial(3, 30, 300, true),
		mkTrial(2, 6, 100, false),
	}}
	subs := d.Subjects()
	if len(subs) != 3 || subs[0] != 1 || subs[2] != 3 {
		t.Fatalf("Subjects = %v", subs)
	}
	f := d.FilterSubjects([]int{3})
	if len(f.Trials) != 2 {
		t.Fatalf("filter kept %d trials", len(f.Trials))
	}
	falls, adls := d.Counts()
	if falls != 2 || adls != 2 {
		t.Fatalf("Counts = %d, %d", falls, adls)
	}
}

func TestDatasetMergeAndStats(t *testing.T) {
	a := &Dataset{Trials: []Trial{mkTrial(1, 6, 100, false)}}
	b := &Dataset{Trials: []Trial{mkTrial(2, 30, 300, true)}}
	a.Merge(b)
	st := a.ComputeStats()
	if st.Trials != 2 || st.Falls != 1 || st.ADLs != 1 || st.Subjects != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Samples != 400 {
		t.Fatalf("samples = %d", st.Samples)
	}
	if math.Abs(st.FallDurationMeanMS-500) > 1e-9 {
		t.Fatalf("fall duration = %g ms, want 500", st.FallDurationMeanMS)
	}
}

func TestLowPassSmoothsNoise(t *testing.T) {
	tr := mkTrial(1, 1, 400, false)
	// Inject alternating ±0.5 noise on acc X (a 50 Hz square wave).
	x := make([]float64, 400)
	for i := range x {
		if i%2 == 0 {
			x[i] = 0.5
		} else {
			x[i] = -0.5
		}
	}
	tr.SetChannel(imu.AccX, x)
	d := &Dataset{Trials: []Trial{tr}}
	d.LowPass()
	out := d.Trials[0].Channel(imu.AccX)
	for i := 50; i < 350; i++ {
		if math.Abs(out[i]) > 0.02 {
			t.Fatalf("50 Hz noise survived LowPass at %d: %g", i, out[i])
		}
	}
	// The steady Z channel must be preserved.
	z := d.Trials[0].Channel(imu.AccZ)
	if math.Abs(z[200]-1) > 0.01 {
		t.Fatalf("LowPass distorted constant channel: %g", z[200])
	}
}

func TestSourceString(t *testing.T) {
	if SourceWorksite.String() != "worksite" || SourceKFall.String() != "kfall" {
		t.Fatal("source names")
	}
	if Source(9).String() == "" {
		t.Fatal("unknown source unnamed")
	}
}

func TestAirbagConstants(t *testing.T) {
	if AirbagInflationSamples != 15 {
		t.Fatalf("150 ms at 100 Hz must be 15 samples, got %d", AirbagInflationSamples)
	}
}

// TestTrialOutcome pins the airbag deadline at its boundaries.
func TestTrialOutcome(t *testing.T) {
	fall := mkTrial(1, 30, 200, true) // impact at sample 150
	adl := mkTrial(1, 6, 200, false)
	cases := []struct {
		name    string
		trial   *Trial
		trigger int
		want    Outcome
	}{
		{"exactly the inflation time is in time", &fall, fall.Impact - 15,
			Outcome{Triggered: true, TriggerSample: 135, LeadTimeMS: 150, InTime: true}},
		{"one sample short is too late", &fall, fall.Impact - 14,
			Outcome{Triggered: true, TriggerSample: 136, LeadTimeMS: 140}},
		{"a trigger at impact has no lead", &fall, fall.Impact,
			Outcome{Triggered: true, TriggerSample: 150}},
		{"a missed fall", &fall, -1, Outcome{TriggerSample: -1}},
		{"an ADL trigger is a false alarm", &adl, 40,
			Outcome{Triggered: true, TriggerSample: 40, FalseAlarm: true}},
		{"a quiet ADL", &adl, -1, Outcome{TriggerSample: -1}},
	}
	for _, tc := range cases {
		if got := tc.trial.Outcome(tc.trigger); got != tc.want {
			t.Errorf("%s: Outcome(%d) = %+v, want %+v", tc.name, tc.trigger, got, tc.want)
		}
	}
}
