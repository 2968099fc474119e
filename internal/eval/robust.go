package eval

import (
	"math"

	"repro/internal/cascade"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/tensor"
)

// RobustnessPoint is the streaming detector's performance under one
// fault condition (or the clean baseline when Fault is "clean").
type RobustnessPoint struct {
	Fault    string
	Severity float64

	FallTrials, ADLTrials int

	// Recall is the fraction of fall trials that triggered at all;
	// InTime the fraction that triggered early enough for the airbag.
	Recall, InTime float64
	// MeanLeadMS averages the inflation margin over triggered falls.
	MeanLeadMS float64
	// FalseAlarmsPerHour normalises ADL-trial firings by the ADL
	// stream duration — the deployment cost metric.
	FalseAlarmsPerHour float64
	// FalseAlarmRate is the fraction of ADL trials that false-fired —
	// the per-trial companion to FalseAlarmsPerHour, used by the
	// cascade acceptance criterion (≤ 2× the clean baseline).
	FalseAlarmRate float64

	// Quarantined/Missing/BadScores aggregate the detector's fault
	// counters over the sweep; BadScores must stay 0 (the hardened
	// pipeline never emits a non-finite probability).
	Quarantined, Missing, BadScores int
	// Stuck and Drift aggregate the per-channel health detections
	// (whole-vector + per-axis stuck latches, baseline drift) — the
	// fault classes the Quarantined column is structurally blind to,
	// because a stuck or drifting reading is perfectly finite.
	Stuck, Drift int

	// TierEvals counts decisions per cascade tier over the condition's
	// whole replay (zero for non-cascade sweeps); TierTriggers counts
	// which tier produced each trigger, on a fall or an ADL trial.
	// Together they show where the cascade actually decided under each
	// fault.
	TierEvals    [cascade.NumTiers]int
	TierTriggers [cascade.NumTiers]int
}

// MissRate is 1 − Recall: the fraction of fall trials the detector
// never fired on — the cost a pre-impact airbag cares most about.
func (p RobustnessPoint) MissRate() float64 { return 1 - p.Recall }

// DeltaRecall returns the recall degradation versus a baseline, in
// points (positive = worse than clean).
func (p RobustnessPoint) DeltaRecall(clean RobustnessPoint) float64 {
	return 100 * (clean.Recall - p.Recall)
}

// DeltaLeadMS returns the lead-time degradation versus a baseline, in
// milliseconds (positive = less margin than clean).
func (p RobustnessPoint) DeltaLeadMS(clean RobustnessPoint) float64 {
	return clean.MeanLeadMS - p.MeanLeadMS
}

// RobustnessReport is a full fault-type × severity sweep against the
// clean baseline.
type RobustnessReport struct {
	Clean  RobustnessPoint
	Points []RobustnessPoint
}

// EvaluateRobustnessParallel replays every trial through the
// streaming detector once clean and once per (fault kind, severity)
// pair, measuring how much of the clean recall, lead time and
// false-alarm rate survives each sensor-fault condition. The
// conditions fan out across len(dets) workers. Each detector must be
// an independent pipeline instance (detectors carry filter, ring and
// classifier-scratch state): worker w replays its conditions on
// dets[w], every condition's injector is seeded from the sweep seed
// and the condition alone, and SimulateFaulty resets the detector and
// the injector per trial — so the sweep is reproducible sample for
// sample and the report is identical for any detector count.
func EvaluateRobustnessParallel[S tensor.Scalar](dets []*edge.DetectorOf[S], trials []dataset.Trial,
	kinds []fault.Kind, severities []float64, seed int64) *RobustnessReport {
	return sweepConditions(len(dets), kinds, severities, func(w int, inj fault.Injector) RobustnessPoint {
		d := dets[w]
		return simulateAll(trials, func(t *dataset.Trial) (cascade.TrialSim, edge.FaultStats) {
			return cascade.TrialSim{Outcome: d.SimulateFaulty(t, inj), TriggerTier: cascade.NumTiers}, d.Stats()
		})
	}, seed)
}

// EvaluateCascadeRobustnessParallel is the fault sweep over the
// supervised detector cascade: same conditions, same injector seeding,
// but every trial replays through cascade.SimulateFaulty, so the
// report carries per-tier decision and trigger counts alongside the
// base metrics. A plain and a cascade sweep over the same trials,
// kinds, severities and seed see sample-identical fault streams — the
// pairing the with/without-cascade comparison depends on. Each cascade
// must be an independent instance over its own cloned classifiers; the
// report is identical for any worker count.
func EvaluateCascadeRobustnessParallel[S tensor.Scalar](cs []*cascade.CascadeOf[S], trials []dataset.Trial,
	kinds []fault.Kind, severities []float64, seed int64) *RobustnessReport {
	return sweepConditions(len(cs), kinds, severities, func(w int, inj fault.Injector) RobustnessPoint {
		c := cs[w]
		return simulateAll(trials, func(t *dataset.Trial) (cascade.TrialSim, edge.FaultStats) {
			return c.SimulateFaulty(t, inj), c.Detector().Stats()
		})
	}, seed)
}

// sweepConditions runs one replay per (kind, severity) condition plus
// the clean baseline, fanned across workers. Injector seeding depends
// only on the sweep seed and the condition, never the worker, so the
// report is bit-identical for any worker count.
func sweepConditions(workers int, kinds []fault.Kind, severities []float64,
	replay func(w int, inj fault.Injector) RobustnessPoint, seed int64) *RobustnessReport {
	if len(kinds) == 0 {
		kinds = fault.Kinds()
	}
	if len(severities) == 0 {
		severities = []float64{0.1, 0.25, 0.5}
	}
	type cond struct {
		kind fault.Kind
		sev  float64
	}
	var conds []cond
	for _, k := range kinds {
		for _, sev := range severities {
			conds = append(conds, cond{k, sev})
		}
	}
	rep := &RobustnessReport{Points: make([]RobustnessPoint, len(conds))}
	// Condition index 0 is the clean baseline; faults follow in sweep
	// order. Each point lands in its own slot.
	par.New(workers).Run(len(conds)+1, func(w, i int) {
		if i == 0 {
			rep.Clean = replay(w, nil)
			rep.Clean.Fault = "clean"
			return
		}
		c := conds[i-1]
		inj := fault.New(c.kind, c.sev, seed+int64(c.kind)*1000+int64(100*c.sev))
		p := replay(w, inj)
		p.Fault = c.kind.String()
		p.Severity = c.sev
		rep.Points[i-1] = p
	})
	return rep
}

// simulateAll replays every trial under one fault condition through
// replay, which returns the trial's outcome with its tier accounting
// and the detector's fault counters, and tallies them into one point.
// A plain detector's run has zero TierEvals and TriggerTier NumTiers
// (no tier), so a plain sweep's tier counts stay zero.
func simulateAll(trials []dataset.Trial, replay func(t *dataset.Trial) (cascade.TrialSim, edge.FaultStats)) RobustnessPoint {
	var p RobustnessPoint
	detected, inTime := 0, 0
	leadSum := 0.0
	falseAlarms := 0
	adlSamples := 0
	for i := range trials {
		t := &trials[i]
		sim, st := replay(t)
		p.Quarantined += st.Quarantined
		p.Missing += st.Missing
		p.BadScores += st.BadScores
		p.Stuck += st.AccStuck + st.GyroStuck
		p.Drift += st.AccDrift + st.GyroDrift
		for tier, n := range sim.TierEvals {
			p.TierEvals[tier] += n
		}
		if sim.Triggered && sim.TriggerTier < cascade.NumTiers {
			p.TierTriggers[sim.TriggerTier]++
		}
		if t.IsFall() {
			p.FallTrials++
			if sim.Triggered {
				detected++
				leadSum += sim.LeadTimeMS
				if sim.InTime {
					inTime++
				}
			}
		} else {
			p.ADLTrials++
			adlSamples += len(t.Samples)
			if sim.FalseAlarm {
				falseAlarms++
			}
		}
	}
	p.finish(detected, inTime, leadSum, falseAlarms, adlSamples)
	return p
}

// finish derives the rate metrics from the raw tallies.
func (p *RobustnessPoint) finish(detected, inTime int, leadSum float64, falseAlarms, adlSamples int) {
	if p.FallTrials > 0 {
		p.Recall = float64(detected) / float64(p.FallTrials)
		p.InTime = float64(inTime) / float64(p.FallTrials)
	}
	if detected > 0 {
		p.MeanLeadMS = leadSum / float64(detected)
	}
	if p.ADLTrials > 0 {
		p.FalseAlarmRate = float64(falseAlarms) / float64(p.ADLTrials)
	}
	if hours := float64(adlSamples) / dataset.SampleRate / 3600; hours > 0 {
		p.FalseAlarmsPerHour = float64(falseAlarms) / hours
	}
	if math.IsNaN(p.MeanLeadMS) {
		p.MeanLeadMS = 0 // defensive: a sim must never leak NaN upward
	}
}
