// Package dataset provides the containers and transformations between
// raw IMU trials and the labelled fixed-size segments the models
// train on: trial records with frame-accurate fall annotations, the
// paper's 150 ms pre-impact truncation, unit/orientation alignment of
// heterogeneous sources (KFall vs the self-collected dataset),
// low-pass filtering, sliding-window segmentation with label
// assignment, CSV interchange and subject-independent k-fold splits.
package dataset

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dsp"
	"repro/internal/imu"
)

// Source identifies which acquisition campaign a trial belongs to.
// The two sources differ in units and sensor orientation and must be
// aligned before merging (paper §IV-A).
type Source int

const (
	// SourceWorksite is the self-collected Protechto dataset: 29
	// subjects, accelerations in g, native sensor frame.
	SourceWorksite Source = iota
	// SourceKFall is the KFall-style dataset: 32 subjects,
	// accelerations in m/s², sensor frame rotated w.r.t. ours.
	SourceKFall
)

func (s Source) String() string {
	switch s {
	case SourceWorksite:
		return "worksite"
	case SourceKFall:
		return "kfall"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// SampleRate is the common acquisition rate in Hz (both datasets run
// at 100 Hz).
const SampleRate = 100

// AirbagInflationMS is the airbag's inflation time: the last
// AirbagInflationMS milliseconds of every falling phase are useless
// for triggering and are removed from the data (paper §III-C, §V).
const AirbagInflationMS = 150

// AirbagInflationSamples is the same deadline in samples at SampleRate.
const AirbagInflationSamples = AirbagInflationMS * SampleRate / 1000

// impactExclusionSamples extends the excluded region slightly past the
// impact instant so that no segment straddles the impact spike itself.
const impactExclusionSamples = 30

// Trial is one recorded activity execution by one subject, with
// frame-accurate fall annotations when the task ends in a fall.
type Trial struct {
	Subject int    // global subject id (unique across sources)
	Task    int    // Table II task id, 1–44
	Index   int    // trial repetition number
	Source  Source // acquisition campaign

	Samples []imu.Sample

	// FallOnset is the sample index at which recovery becomes
	// impossible (start of the falling phase); Impact is the sample
	// index of ground contact. Both are −1 for ADL trials.
	FallOnset int
	Impact    int
}

// IsFall reports whether the trial contains an annotated fall.
func (t *Trial) IsFall() bool { return t.FallOnset >= 0 && t.Impact > t.FallOnset }

// TruncatedFallEnd returns the exclusive end of the usable falling
// phase: Impact minus the airbag inflation window. Segments beyond
// this point cannot trigger the airbag in time and are excluded.
func (t *Trial) TruncatedFallEnd() int {
	if !t.IsFall() {
		return -1
	}
	end := t.Impact - AirbagInflationSamples
	if end < t.FallOnset {
		end = t.FallOnset // degenerate ultra-short fall
	}
	return end
}

// Outcome is the airbag verdict on one replayed trial.
type Outcome struct {
	// Triggered is true when the detector fired at least once.
	Triggered bool
	// TriggerSample is the first firing sample (-1 when not fired).
	TriggerSample int
	// LeadTimeMS is the margin between trigger and impact for fall
	// trials; the airbag needs ≥ AirbagInflationMS.
	LeadTimeMS float64
	// InTime is true when a fall was detected with enough lead time
	// for full inflation before impact.
	InTime bool
	// FalseAlarm is true when the detector fired during an ADL trial.
	FalseAlarm bool
}

// Outcome judges a replay whose first trigger was at sample trigger
// (negative when the detector never fired) against the airbag
// deadline: a fall is caught in time when the trigger precedes the
// annotated impact by at least AirbagInflationMS, and any trigger on
// an ADL trial is a false alarm.
func (t *Trial) Outcome(trigger int) Outcome {
	if trigger < 0 {
		return Outcome{TriggerSample: -1}
	}
	o := Outcome{Triggered: true, TriggerSample: trigger, FalseAlarm: !t.IsFall()}
	if t.IsFall() {
		o.LeadTimeMS = float64(t.Impact-trigger) * 1000 / SampleRate
		o.InTime = o.LeadTimeMS >= AirbagInflationMS
	}
	return o
}

// Validate performs structural checks on the trial.
func (t *Trial) Validate() error {
	if len(t.Samples) == 0 {
		return fmt.Errorf("dataset: trial s%d t%d has no samples", t.Subject, t.Task)
	}
	if t.IsFall() {
		if t.FallOnset >= len(t.Samples) || t.Impact > len(t.Samples) {
			return fmt.Errorf("dataset: trial s%d t%d fall annotation [%d,%d) outside %d samples",
				t.Subject, t.Task, t.FallOnset, t.Impact, len(t.Samples))
		}
	} else if t.FallOnset != -1 || t.Impact != -1 {
		return fmt.Errorf("dataset: trial s%d t%d has inconsistent fall annotation (%d,%d)",
			t.Subject, t.Task, t.FallOnset, t.Impact)
	}
	return nil
}

// Channel extracts one feature channel as a contiguous signal.
func (t *Trial) Channel(c int) []float64 {
	out := make([]float64, len(t.Samples))
	for i, s := range t.Samples {
		out[i] = s.Features()[c]
	}
	return out
}

// SetChannel overwrites one feature channel from a signal of matching
// length.
func (t *Trial) SetChannel(c int, x []float64) {
	if len(x) != len(t.Samples) {
		panic(fmt.Sprintf("dataset: SetChannel length %d != %d", len(x), len(t.Samples)))
	}
	for i := range t.Samples {
		f := t.Samples[i].Features()
		f[c] = x[i]
		t.Samples[i] = imu.FromFeatures(f)
	}
}

// Dataset is a collection of trials from one or both sources.
type Dataset struct {
	Trials []Trial
}

// Subjects returns the sorted distinct subject ids present.
func (d *Dataset) Subjects() []int {
	seen := map[int]bool{}
	for i := range d.Trials {
		seen[d.Trials[i].Subject] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// FilterSubjects returns a shallow dataset containing only trials from
// the given subjects.
func (d *Dataset) FilterSubjects(subjects []int) *Dataset {
	want := map[int]bool{}
	for _, s := range subjects {
		want[s] = true
	}
	out := &Dataset{}
	for i := range d.Trials {
		if want[d.Trials[i].Subject] {
			out.Trials = append(out.Trials, d.Trials[i])
		}
	}
	return out
}

// Merge appends all trials of o.
func (d *Dataset) Merge(o *Dataset) {
	d.Trials = append(d.Trials, o.Trials...)
}

// Counts returns the number of fall and ADL trials.
func (d *Dataset) Counts() (falls, adls int) {
	for i := range d.Trials {
		if d.Trials[i].IsFall() {
			falls++
		} else {
			adls++
		}
	}
	return falls, adls
}

// Stats summarises the dataset for reporting.
type Stats struct {
	Trials, Falls, ADLs  int
	Subjects             int
	Samples              int
	FallDurationMeanMS   float64
	FallDurationShortest float64 // ms
}

// ComputeStats walks the dataset once and summarises it.
func (d *Dataset) ComputeStats() Stats {
	st := Stats{Trials: len(d.Trials), Subjects: len(d.Subjects())}
	durSum, durN := 0.0, 0
	shortest := math.Inf(1)
	for i := range d.Trials {
		t := &d.Trials[i]
		st.Samples += len(t.Samples)
		if t.IsFall() {
			st.Falls++
			ms := float64(t.Impact-t.FallOnset) * 1000 / SampleRate
			durSum += ms
			durN++
			if ms < shortest {
				shortest = ms
			}
		} else {
			st.ADLs++
		}
	}
	if durN > 0 {
		st.FallDurationMeanMS = durSum / float64(durN)
		st.FallDurationShortest = shortest
	}
	return st
}

// LowPass applies the paper's pre-processing filter (4th-order
// Butterworth, cutoff 5 Hz) zero-phase to every channel of every
// trial, in place.
func (d *Dataset) LowPass() {
	f := dsp.MustButterworth(4, 5, SampleRate)
	for i := range d.Trials {
		t := &d.Trials[i]
		for c := 0; c < imu.NumChannels; c++ {
			t.SetChannel(c, f.FiltFilt(t.Channel(c)))
		}
	}
}
