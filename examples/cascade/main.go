// Cascade: what the supervised detector cascade buys when a sensor
// dies outright. Streams one hard trip-fall trial twice — through the
// plain hardened pipeline and through the three-tier cascade — while
// the gyroscope dies half a second before the fall begins. The plain
// pipeline does the safe thing and fails closed: the gyro group trips
// Faulted, evaluation stops, the fall is missed. The cascade demotes
// to its accelerometer-only tier and still fires before the 150 ms
// airbag deadline.
//
// The tiers are wired with the fast threshold classifiers so the demo
// runs in milliseconds; in deployment the same roles are filled by the
// trained three-branch CNN and its accel-branch-only sibling
// (falldet.TrainCascade), which is where the tier names come from.
//
//	go run ./examples/cascade
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/cascade"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	// One synthetic trip fall (Table II task 30): walking, a trip, a
	// falling phase, impact.
	rng := rand.New(rand.NewSource(3))
	subj := synth.NewSubject(1, rng)
	task, err := synth.TaskByID(30)
	if err != nil {
		log.Fatal(err)
	}
	trial := synth.GenerateTrial(subj, task, 0, 6, rng)

	// The gyroscope dies (permanent NaN output) half a second before
	// the fall starts, so every window that could catch the fall has a
	// dead rotation channel.
	gyroDeath := trial.FallOnset - 50
	fmt.Printf("trial: %d samples, fall onset %d, impact %d (airbag needs %d ms)\n",
		len(trial.Samples), trial.FallOnset, trial.Impact, dataset.AirbagInflationMS)
	fmt.Printf("gyroscope dies at sample %d and never comes back\n\n", gyroDeath)

	plain(&trial, gyroDeath)
	cascaded(&trial, gyroDeath)

	fmt.Println("the plain pipeline fails closed — correct for a model that needs the gyro,")
	fmt.Println("fatal for the wearer. The cascade's supervisor sees exactly which channel")
	fmt.Println("group died, demotes one tier, and keeps deciding on the channels it can")
	fmt.Println("still trust. Deployment pairing: falldet.TrainCascade + fallbench -exp cascade.")
}

// deadGyro returns the trial's sample i with the gyro replaced by NaN
// from the death sample onward.
func deadGyro(t *dataset.Trial, i, death int) (imu.Vec3, imu.Vec3) {
	s := t.Samples[i]
	if i >= death {
		nan := math.NaN()
		return s.Acc, imu.Vec3{X: nan, Y: nan, Z: nan}
	}
	return s.Acc, s.Gyro
}

// plain replays the trial through the base hardened pipeline with a
// classifier that needs the rotation channels.
func plain(trial *dataset.Trial, death int) {
	clf, err := model.NewThreshold(model.KindThresholdGyro)
	if err != nil {
		log.Fatal(err)
	}
	det, err := edge.NewDetectorOf[float64](clf, edge.DetectorConfig{WindowMS: 200, Overlap: 0.75})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== plain pipeline (needs the gyro) ==")
	last := edge.HealthHealthy
	trigger := -1
	for i := range trial.Samples {
		acc, gyro := deadGyro(trial, i, death)
		r := det.Push(acc, gyro)
		if r.Health != last {
			fmt.Printf("  sample %3d: health %s → %s\n", i, last, r.Health)
			last = r.Health
		}
		if r.Triggered && trigger < 0 {
			trigger = i
		}
	}
	st := det.Stats()
	fmt.Printf("  gyro samples held: %d; windows evaluated after the death: 0 — the\n", st.GyroHeld)
	fmt.Println("  pipeline is Faulted and refuses to score a window it cannot trust")
	report(trial, trigger, "")
}

// cascaded replays the same stream through the three-tier cascade.
func cascaded(trial *dataset.Trial, death int) {
	primary, err := model.NewThreshold(model.KindThresholdGyro)
	if err != nil {
		log.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 200, Overlap: 0.75})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== cascade (supervisor + accelerometer-only fallback tier) ==")
	lastTier := c.SupervisorTier()
	trigger := -1
	var tier cascade.Tier
	for i := range trial.Samples {
		acc, gyro := deadGyro(trial, i, death)
		d := c.Push(acc, gyro)
		if d.SupervisorTier != lastTier {
			fmt.Printf("  sample %3d: supervisor %s → %s (gyro group %s)\n",
				i, lastTier, d.SupervisorTier, d.Groups.Gyro)
			lastTier = d.SupervisorTier
		}
		if d.Triggered && trigger < 0 {
			trigger = i
			tier = d.Tier
		}
	}
	ev := c.TierEvals()
	fmt.Printf("  decisions per tier: %d %s, %d %s, %d %s\n",
		ev[cascade.TierPrimary], cascade.TierPrimary,
		ev[cascade.TierFallback], cascade.TierFallback,
		ev[cascade.TierThreshold], cascade.TierThreshold)
	report(trial, trigger, fmt.Sprintf(" by the %s tier", tier))
}

// report prints the outcome line shared by both replays.
func report(trial *dataset.Trial, trigger int, by string) {
	if o := trial.Outcome(trigger); o.Triggered {
		verdict := "too late"
		if o.InTime {
			verdict = "in time"
		}
		fmt.Printf("  outcome: triggered at sample %d%s, %.0f ms before impact (%s)\n",
			trigger, by, o.LeadTimeMS, verdict)
	} else {
		fmt.Println("  outcome: no trigger — the fall is MISSED")
	}
	fmt.Println()
}
