// Faults: what the streaming pipeline does when the sensor misbehaves.
// Streams one hard trip-fall trial through the hardened detector four
// times — clean, with NaN bursts, with burst dropout and with a
// mid-fall long gap — and prints the health transitions, the fault
// counters and whether the airbag still fires in time. Uses the
// threshold classifier so the demo runs in milliseconds; the same
// pipeline wraps the trained CNN in deployment.
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	// One synthetic trip fall (Table II task 30): walking, a trip, a
	// 500 ms falling phase, impact.
	rng := rand.New(rand.NewSource(3))
	subj := synth.NewSubject(1, rng)
	task, err := synth.TaskByID(30)
	if err != nil {
		log.Fatal(err)
	}
	trial := synth.GenerateTrial(subj, task, 0, 6, rng)

	clf, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		log.Fatal(err)
	}
	det, err := edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.75})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trial: %d samples, fall onset %d, impact %d (airbag needs %d ms)\n\n",
		len(trial.Samples), trial.FallOnset, trial.Impact, dataset.AirbagInflationMS)

	scenarios := []struct {
		name string
		inj  fault.Injector
	}{
		{"clean sensor", nil},
		{"NaN/Inf bursts (bus glitches)", fault.NewNaNBurst(0.02, 3, 11)},
		{"5% burst dropout", fault.NewDropout(0.05, 3, 21)},
		{"long gap mid-stream", &gapAt{start: 150, length: 30}},
	}
	for _, sc := range scenarios {
		replay(det, &trial, sc.name, sc.inj)
	}

	fmt.Println("degradation policy: short gaps are bridged by sample-and-hold and the")
	fmt.Println("pipeline keeps classifying (Degraded); non-finite samples are quarantined;")
	fmt.Println("a long gap re-primes the filters and holds classification off until a full")
	fmt.Println("fresh window accumulates, so the model never scores stale ring contents.")
}

// replay streams the trial through the detector under one fault
// condition, logging health transitions as they happen.
func replay(det *edge.Detector, trial *dataset.Trial, name string, inj fault.Injector) {
	fmt.Printf("== %s ==\n", name)
	det.Reset()
	last := edge.HealthHealthy
	trigger := -1
	// observe notes the first trigger but reports none back to the
	// replay, so the whole trial streams: health keeps being logged
	// after the airbag fires.
	observe := func(i int, r edge.Result) bool {
		if r.Health != last {
			fmt.Printf("  sample %3d: health %s → %s\n", i, last, r.Health)
			last = r.Health
		}
		if r.Triggered && trigger < 0 {
			trigger = i
		}
		return false
	}
	fault.Replay(trial.Samples, inj,
		func(i int, s imu.Sample) bool { return observe(i, det.Push(s.Acc, s.Gyro)) },
		func(i int) bool { return observe(i, det.PushMissing(1)) })
	st := det.Stats()
	fmt.Printf("  faults absorbed: %d quarantined, %d missing (%d bridged, %d holdoffs), %d NaN scores\n",
		st.Quarantined, st.Missing, st.Bridged, st.Holdoffs, st.BadScores)
	if o := trial.Outcome(trigger); o.Triggered {
		verdict := "too late"
		if o.InTime {
			verdict = "in time"
		}
		fmt.Printf("  outcome: triggered at sample %d, %.0f ms before impact (%s)\n",
			trigger, o.LeadTimeMS, verdict)
	} else {
		fmt.Println("  outcome: no trigger")
	}
	fmt.Println()
}

// gapAt is a deterministic scripted injector: one contiguous gap of
// the given length, for demonstrating the holdoff path.
type gapAt struct {
	start, length int
	step          int
}

func (g *gapAt) Name() string { return fmt.Sprintf("gap(%d@%d)", g.length, g.start) }
func (g *gapAt) Reset()       { g.step = 0 }
func (g *gapAt) Apply(s imu.Sample) (imu.Sample, fault.Effect) {
	i := g.step
	g.step++
	if i >= g.start && i < g.start+g.length {
		return s, fault.Drop
	}
	return s, fault.Pass
}
