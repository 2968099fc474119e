package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/imu"
)

func cleanSample() imu.Sample {
	return imu.Sample{Acc: imu.Vec3{Z: 1}, Gyro: imu.Vec3{X: 10}}
}

// run feeds n clean samples through an injector and returns the
// delivered samples and per-effect counts.
func run(inj Injector, n int) (delivered []imu.Sample, drops, repeats int) {
	inj.Reset()
	for i := 0; i < n; i++ {
		s, eff := inj.Apply(cleanSample())
		switch eff {
		case Drop:
			drops++
		case Repeat:
			repeats++
			delivered = append(delivered, s, s)
		default:
			delivered = append(delivered, s)
		}
	}
	return delivered, drops, repeats
}

func TestDropoutRate(t *testing.T) {
	inj := NewDropout(0.05, 3, 42)
	_, drops, _ := run(inj, 20000)
	frac := float64(drops) / 20000
	if frac < 0.03 || frac > 0.08 {
		t.Fatalf("dropout fraction %.3f far from 0.05 target", frac)
	}
}

func TestDropoutDeterminism(t *testing.T) {
	a := NewDropout(0.1, 4, 7)
	b := NewDropout(0.1, 4, 7)
	for i := 0; i < 1000; i++ {
		_, ea := a.Apply(cleanSample())
		_, eb := b.Apply(cleanSample())
		if ea != eb {
			t.Fatalf("same-seed injectors diverged at sample %d", i)
		}
	}
	// Reset rewinds to the same stream.
	a.Reset()
	c := NewDropout(0.1, 4, 7)
	for i := 0; i < 1000; i++ {
		_, ea := a.Apply(cleanSample())
		_, ec := c.Apply(cleanSample())
		if ea != ec {
			t.Fatalf("Reset did not rewind (sample %d)", i)
		}
	}
}

func TestSaturationClips(t *testing.T) {
	inj := NewSaturation(2, 300)
	s, eff := inj.Apply(imu.Sample{
		Acc:  imu.Vec3{X: 7, Y: -9, Z: 1},
		Gyro: imu.Vec3{X: 1500, Y: -400, Z: 10},
	})
	if eff != Pass {
		t.Fatal("saturation must deliver")
	}
	if s.Acc.X != 2 || s.Acc.Y != -2 || s.Acc.Z != 1 {
		t.Fatalf("acc clip wrong: %+v", s.Acc)
	}
	if s.Gyro.X != 300 || s.Gyro.Y != -300 || s.Gyro.Z != 10 {
		t.Fatalf("gyro clip wrong: %+v", s.Gyro)
	}
}

func TestNoiseZeroMean(t *testing.T) {
	inj := NewNoise(0.1, 10, 3)
	delivered, _, _ := run(inj, 5000)
	var sum float64
	for _, s := range delivered {
		sum += s.Acc.Z - 1
	}
	if m := sum / float64(len(delivered)); math.Abs(m) > 0.01 {
		t.Fatalf("noise mean %.4f not ≈0", m)
	}
}

func TestDriftAccumulates(t *testing.T) {
	inj := NewDrift(0.001, 0)
	delivered, _, _ := run(inj, 100)
	first, last := delivered[0].Acc.Z, delivered[99].Acc.Z
	if last-first < 0.09 {
		t.Fatalf("drift did not accumulate: %g → %g", first, last)
	}
	inj.Reset()
	s, _ := inj.Apply(cleanSample())
	if s.Acc.Z != first {
		t.Fatal("Reset did not clear accumulated drift")
	}
}

func TestStuckFreezesChannel(t *testing.T) {
	inj := NewStuck(imu.AccZ, 1, 5) // always engages
	inj.Reset()
	var frozen float64
	seen := false
	for i := 0; i < 400; i++ {
		in := cleanSample()
		in.Acc.Z = float64(i) // ramp so sticking is visible
		s, _ := inj.Apply(in)
		if s.Acc.Z != in.Acc.Z {
			if !seen {
				frozen, seen = s.Acc.Z, true
			} else if s.Acc.Z != frozen {
				t.Fatalf("stuck channel moved: %g != %g", s.Acc.Z, frozen)
			}
		}
	}
	if !seen {
		t.Fatal("stuck fault never engaged at Engage=1")
	}
	// Engage=0 never sticks.
	off := NewStuck(imu.AccZ, 0, 5)
	for i := 0; i < 400; i++ {
		in := cleanSample()
		in.Acc.Z = float64(i)
		if s, _ := off.Apply(in); s.Acc.Z != in.Acc.Z {
			t.Fatal("stuck fault engaged at Engage=0")
		}
	}
}

func TestNaNBurstEmitsNonFinite(t *testing.T) {
	inj := NewNaNBurst(0.05, 3, 11)
	delivered, _, _ := run(inj, 2000)
	bad := 0
	for _, s := range delivered {
		if math.IsNaN(s.Acc.X) || math.IsInf(s.Acc.X, 0) {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no non-finite samples emitted")
	}
	if bad > len(delivered)/2 {
		t.Fatalf("non-finite fraction implausibly high: %d/%d", bad, len(delivered))
	}
}

func TestJitterDropsAndRepeats(t *testing.T) {
	inj := NewJitter(0.1, 0.1, 9)
	delivered, drops, repeats := run(inj, 5000)
	if drops == 0 || repeats == 0 {
		t.Fatalf("jitter produced drops=%d repeats=%d", drops, repeats)
	}
	if len(delivered) != 5000-drops+repeats {
		t.Fatal("delivered count inconsistent with effects")
	}
}

func TestChainComposesAndPrecedence(t *testing.T) {
	c := Chain{NewSaturation(2, 300), NewDropout(1, 1, 1)} // rate 1: drop everything
	s, eff := c.Apply(imu.Sample{Acc: imu.Vec3{X: 7}})
	if eff != Drop {
		t.Fatalf("chain effect %v, want Drop", eff)
	}
	_ = s
	c2 := Chain{NewSaturation(2, 300), NewDrift(0.001, 0)}
	out, eff := c2.Apply(imu.Sample{Acc: imu.Vec3{X: 7, Z: 0}})
	if eff != Pass || out.Acc.X != 2 {
		t.Fatalf("chain did not apply both: %+v eff=%v", out, eff)
	}
}

func TestNewSeverityBounds(t *testing.T) {
	for _, k := range Kinds() {
		for _, sev := range []float64{-1, 0, 0.25, 1, 2} {
			inj := New(k, sev, 1)
			if inj == nil {
				t.Fatalf("New(%v, %g) returned nil", k, sev)
			}
			inj.Reset()
			for i := 0; i < 100; i++ {
				inj.Apply(cleanSample())
			}
		}
	}
}

func TestApplyTrialPreservesShape(t *testing.T) {
	tr := &dataset.Trial{Subject: 1, Task: 30, FallOnset: 60, Impact: 90}
	for i := 0; i < 120; i++ {
		tr.Samples = append(tr.Samples, imu.Sample{Acc: imu.Vec3{Z: 1, X: float64(i)}})
	}
	inj := NewDropout(0.3, 3, 21)
	out := ApplyTrial(tr, inj)
	if len(out.Samples) != len(tr.Samples) {
		t.Fatalf("length changed: %d != %d", len(out.Samples), len(tr.Samples))
	}
	if out.FallOnset != 60 || out.Impact != 90 {
		t.Fatal("annotations changed")
	}
	// Original untouched.
	if tr.Samples[10].Acc.X != 10 {
		t.Fatal("ApplyTrial mutated the input trial")
	}
	// Dropped samples hold the previous value, so the ramp must be
	// monotone non-decreasing.
	prev := -1.0
	for i, s := range out.Samples {
		if s.Acc.X < prev {
			t.Fatalf("sample %d not sample-and-hold: %g < %g", i, s.Acc.X, prev)
		}
		prev = s.Acc.X
	}
	// Determinism across calls.
	out2 := ApplyTrial(tr, inj)
	for i := range out.Samples {
		if out.Samples[i] != out2.Samples[i] {
			t.Fatal("ApplyTrial not deterministic across calls")
		}
	}
}

func TestGyroNaNKillsOnlyGyro(t *testing.T) {
	inj := NewGyroFault(GyroNaN, 1, 7) // engage always
	inj.Reset()
	sawNaN := false
	for i := 0; i < 300; i++ {
		s, eff := inj.Apply(cleanSample())
		if eff != Pass {
			t.Fatalf("gyro fault must never drop samples, got %v", eff)
		}
		if math.IsNaN(s.Acc.Z) || math.IsNaN(s.Acc.X) {
			t.Fatal("gyro fault corrupted the accelerometer")
		}
		if math.IsNaN(s.Gyro.X) {
			sawNaN = true
			if !math.IsNaN(s.Gyro.Y) || !math.IsNaN(s.Gyro.Z) {
				t.Fatal("gyro die death must kill all three gyro axes")
			}
		}
	}
	if !sawNaN {
		t.Fatal("engaged gyro-nan fault never produced a NaN gyro reading")
	}
}

func TestGyroStuckFreezesGyro(t *testing.T) {
	inj := NewGyroFault(GyroStuck, 1, 7)
	inj.Reset()
	var frozen imu.Vec3
	froze := false
	for i := 0; i < 300; i++ {
		in := cleanSample()
		in.Gyro = imu.Vec3{X: float64(i), Y: -float64(i), Z: 1}
		s, _ := inj.Apply(in)
		if s.Gyro != in.Gyro { // latched
			if !froze {
				frozen = s.Gyro
				froze = true
			} else if s.Gyro != frozen {
				t.Fatalf("stuck gyro moved: %+v then %+v", frozen, s.Gyro)
			}
		}
	}
	if !froze {
		t.Fatal("engaged gyro-stuck fault never froze the gyro")
	}
}

func TestGyroFaultEngageZeroIsClean(t *testing.T) {
	inj := NewGyroFault(GyroNaN, 0, 7)
	delivered, drops, repeats := run(inj, 500)
	if drops != 0 || repeats != 0 {
		t.Fatal("disengaged gyro fault altered delivery")
	}
	for _, s := range delivered {
		if s != cleanSample() {
			t.Fatal("disengaged gyro fault altered a sample")
		}
	}
}

func TestGyroFaultDeterministicAcrossResets(t *testing.T) {
	a := NewGyroFault(GyroNaN, 0.5, 99)
	first, _, _ := run(a, 400)
	second, _, _ := run(a, 400)
	if len(first) != len(second) {
		t.Fatal("replay length changed across Reset")
	}
	for i := range first {
		af, as := first[i], second[i]
		// NaN != NaN, so compare bit patterns via IsNaN.
		if (math.IsNaN(af.Gyro.X) != math.IsNaN(as.Gyro.X)) || af.Acc != as.Acc {
			t.Fatalf("sample %d differs across Reset", i)
		}
	}
}

// script is a scripted injector: sample i gets effects[i] (Pass past
// the end) and is delivered with Acc.X = 1000+i, so a test can tell
// the corrupted sample from the clean one.
type script struct {
	effects      []Effect
	step, resets int
}

func (sc *script) Name() string { return "script" }
func (sc *script) Reset()       { sc.step = 0; sc.resets++ }
func (sc *script) Apply(s imu.Sample) (imu.Sample, Effect) {
	eff := Pass
	if sc.step < len(sc.effects) {
		eff = sc.effects[sc.step]
	}
	s.Acc.X = float64(1000 + sc.step)
	sc.step++
	return s, eff
}

// TestReplay pins the effect → pipeline-call mapping every streaming
// simulation shares: the call sequence per effect, the nil-injector
// path, which delivery counts as the trigger, and the reset.
func TestReplay(t *testing.T) {
	cases := []struct {
		name    string
		effects []Effect // nil: no injector
		n       int
		fire    []int // pipeline-call ordinals that report a trigger
		want    int
		calls   string
	}{
		{"nil injector pushes the clean stream", nil, 3, nil, -1, "p0:0 p1:0 p2:0"},
		{"pass, drop, repeat", []Effect{Pass, Drop, Repeat}, 3, nil, -1, "p0:1000 m1 p2:1002 p2:1002"},
		{"a repeat's first push is not the trigger", []Effect{Pass, Repeat, Pass}, 3, []int{1}, -1, "p0:1000 p1:1001 p1:1001 p2:1002"},
		{"a repeat's second push is", []Effect{Pass, Repeat, Pass}, 3, []int{2}, 1, "p0:1000 p1:1001 p1:1001"},
		{"a missing sample can trigger", []Effect{Pass, Drop, Pass}, 3, []int{1}, 1, "p0:1000 m1"},
		{"the replay stops at the first trigger", nil, 4, []int{1, 2}, 1, "p0:0 p1:0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples := make([]imu.Sample, tc.n)
			var calls []string
			fires := func() bool {
				for _, f := range tc.fire {
					if f == len(calls)-1 {
						return true
					}
				}
				return false
			}
			push := func(i int, s imu.Sample) bool {
				calls = append(calls, fmt.Sprintf("p%d:%g", i, s.Acc.X))
				return fires()
			}
			missing := func(i int) bool {
				calls = append(calls, fmt.Sprintf("m%d", i))
				return fires()
			}
			var inj Injector
			var sc *script
			if tc.effects != nil {
				// Leave the injector mid-stream: Replay must rewind it.
				sc = &script{effects: tc.effects, step: 2}
				inj = sc
			}
			got := Replay(samples, inj, push, missing)
			if got != tc.want {
				t.Errorf("trigger = %d, want %d", got, tc.want)
			}
			if s := strings.Join(calls, " "); s != tc.calls {
				t.Errorf("calls = %q, want %q", s, tc.calls)
			}
			if sc != nil && sc.resets != 1 {
				t.Errorf("injector reset %d times, want 1", sc.resets)
			}
		})
	}
}
