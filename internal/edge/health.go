package edge

import (
	"math"

	"repro/internal/imu"
)

// Health is the streaming pipeline's degradation state, derived from
// the anomaly density of the most recent window of ingestion events
// (real, quarantined or missing samples).
//
// The policy is conservative in the direction a pre-impact airbag
// needs: a Degraded pipeline keeps classifying (a bridged two-sample
// gap must not blind the detector during a fall), while a Faulted
// pipeline suppresses evaluation entirely — firing a single-use
// cartridge off garbage is worse than missing a window, and the
// health state is surfaced so the wearer can be alerted to a dead
// sensor instead of trusting it silently.
//
// It is a byte so a Result, and the cascade's Decision with its three
// group states, stay small enough to copy per sample.
type Health uint8

const (
	// HealthHealthy: no anomalies in the last window of samples.
	HealthHealthy Health = iota
	// HealthDegraded: some anomalies, but few enough that bridged
	// ingestion keeps the window trustworthy; classification runs.
	HealthDegraded
	// HealthFaulted: too much of the window is reconstructed or
	// missing; classification is suppressed until the stream recovers.
	HealthFaulted
)

func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthFaulted:
		return "faulted"
	default:
		return "health(?)"
	}
}

// faultedFraction is the anomaly density over the health window at
// which the pipeline stops trusting its ring buffer.
const faultedFraction = 0.25

// SensorGroup indexes one of the three channel groups the paper's
// three-branch CNN consumes. Health is tracked per group so a detector
// cascade can keep classifying on the accelerometer branch when only
// the gyroscope (and therefore the fused Euler attitude) has failed.
type SensorGroup int

const (
	// GroupAcc is the tri-axial accelerometer.
	GroupAcc SensorGroup = iota
	// GroupGyro is the tri-axial gyroscope.
	GroupGyro
	// GroupEuler is the fused Euler attitude, derived from both
	// physical sensors; its health is never better than theirs.
	GroupEuler
	// NumGroups is the channel-group count.
	NumGroups
)

func (g SensorGroup) String() string {
	switch g {
	case GroupAcc:
		return "acc"
	case GroupGyro:
		return "gyro"
	case GroupEuler:
		return "euler"
	default:
		return "group(?)"
	}
}

// GroupHealth is the per-channel-group degradation state.
type GroupHealth struct {
	Acc, Gyro, Euler Health
}

// Worst returns the most degraded of the three group states.
//
//fallvet:hotpath
func (g GroupHealth) Worst() Health {
	w := g.Acc
	if g.Gyro > w {
		w = g.Gyro
	}
	if g.Euler > w {
		w = g.Euler
	}
	return w
}

// stuckRunSamples is the length of a bit-identical run at which a
// channel group is flagged stuck: 250 ms of literally unchanged
// readings is physically implausible on a noisy MEMS part, but short
// enough to demote a cascade tier well before a 400 ms window fills
// with frozen data.
const stuckRunSamples = 25

// stuckRun detects a latched channel group by counting consecutive
// bit-identical readings.
type stuckRun struct {
	last imu.Vec3
	run  int
	have bool
}

func (s *stuckRun) reset() {
	s.run = 0
	s.have = false
}

// observe ingests one reading and reports whether the group has been
// frozen for stuckRunSamples or longer.
//
//fallvet:hotpath
func (s *stuckRun) observe(v imu.Vec3) bool {
	if s.have && v == s.last {
		s.run++
	} else {
		s.run = 0
		s.last = v
		s.have = true
	}
	return s.run >= stuckRunSamples
}

// axisRun detects a single latched channel — a dead ADC lane freezes
// one axis while its siblings keep moving, which the whole-vector
// stuckRun can never see. The liveness gate is what keeps it honest:
// an axis only counts as stuck after it has been observed to *change*
// at least once, so a genuinely constant channel (a flat axis on a
// bench fixture, a zeroed unused lane) never trips the detector, while
// a mid-stream latch — the actual fault model — always does.
type axisRun struct {
	last float64
	run  int
	have bool
	live bool
}

func (a *axisRun) reset() { *a = axisRun{} }

// observe ingests one axis reading and reports whether the axis is a
// confirmed mid-stream latch: previously live, now bit-identical for
// stuckRunSamples or longer.
//
//fallvet:hotpath
func (a *axisRun) observe(v float64) bool {
	if a.have && v == a.last {
		if a.live {
			a.run++
		}
		return a.run >= stuckRunSamples
	}
	if a.have {
		a.live = true
	}
	a.run = 0
	a.last = v
	a.have = true
	return false
}

// Baseline-drift detection: a slow additive bias (temperature drift on
// an uncalibrated MEMS part) corrupts every window long before any
// single reading looks implausible. The tracker follows two slow EMAs
// — accelerometer magnitude, which must hover near 1 g at the
// timescale of the filter, and the per-axis gyro rate, which must
// hover near 0 deg/s — and flags a channel group when the baseline
// stays outside its physical band for a sustained run. The run
// requirement is what separates drift from dynamics: a fall's
// free-fall/impact transient or a fast turn moves the EMA for well
// under a second, a bias ramp parks it outside the band permanently.
const (
	// driftTauSamples is the EMA time constant (1 s at 100 Hz).
	driftTauSamples = 100
	// driftWarmSamples gates flagging until the EMA has seen a full
	// time constant of data.
	driftWarmSamples = 100
	// accDriftHighG flags the accelerometer when EMA(|acc|) exceeds
	// 1 g by this margin. High side only: free fall legitimately drags
	// the magnitude toward 0 g, additive bias only ever ramps it up.
	accDriftHighG = 0.5
	// gyroDriftDPS flags a gyro axis whose EMA rate magnitude exceeds
	// this baseline (a resting gyro reads ~0; sustained rotation at
	// this rate for gyroDriftRunSamples is not human posture change).
	gyroDriftDPS = 75.0
	// accDriftRunSamples / gyroDriftRunSamples are the sustained-run
	// lengths before flagging; the gyro run is longer because fall
	// rotation bursts push its EMA far harder than impacts push the
	// magnitude EMA.
	accDriftRunSamples  = 50
	gyroDriftRunSamples = 100
)

// driftTrack maintains the baseline EMAs and their out-of-band runs.
type driftTrack struct {
	accN, gyroN int
	accMag      float64
	gyro        imu.Vec3
	accRun      int
	gyroRun     int
}

func (t *driftTrack) reset() { *t = driftTrack{} }

// observeAcc ingests one finite accelerometer reading (g) and reports
// whether the magnitude baseline is a confirmed high-side drift.
//
//fallvet:hotpath
func (t *driftTrack) observeAcc(acc imu.Vec3) bool {
	mag := math.Sqrt(acc.X*acc.X + acc.Y*acc.Y + acc.Z*acc.Z)
	if t.accN == 0 {
		t.accMag = mag
	} else {
		t.accMag += (mag - t.accMag) / driftTauSamples
	}
	t.accN++
	if t.accN >= driftWarmSamples && t.accMag-1 > accDriftHighG {
		t.accRun++
	} else {
		t.accRun = 0
	}
	return t.accRun >= accDriftRunSamples
}

// observeGyro ingests one finite gyroscope reading (deg/s) and reports
// whether any axis baseline is a confirmed drift.
//
//fallvet:hotpath
func (t *driftTrack) observeGyro(g imu.Vec3) bool {
	if t.gyroN == 0 {
		t.gyro = g
	} else {
		t.gyro.X += (g.X - t.gyro.X) / driftTauSamples
		t.gyro.Y += (g.Y - t.gyro.Y) / driftTauSamples
		t.gyro.Z += (g.Z - t.gyro.Z) / driftTauSamples
	}
	t.gyroN++
	m := math.Abs(t.gyro.X)
	if v := math.Abs(t.gyro.Y); v > m {
		m = v
	}
	if v := math.Abs(t.gyro.Z); v > m {
		m = v
	}
	if t.gyroN >= driftWarmSamples && m > gyroDriftDPS {
		t.gyroRun++
	} else {
		t.gyroRun = 0
	}
	return t.gyroRun >= gyroDriftRunSamples
}

// healthRing tracks which of the last N ingestion events were
// anomalous (quarantined or missing samples).
type healthRing struct {
	flags []bool
	pos   int
	bad   int
}

func newHealthRing(n int) *healthRing {
	return &healthRing{flags: make([]bool, n)}
}

func (h *healthRing) reset() {
	for i := range h.flags {
		h.flags[i] = false
	}
	h.pos, h.bad = 0, 0
}

//fallvet:hotpath
func (h *healthRing) observe(anomalous bool) {
	if h.flags[h.pos] {
		h.bad--
	}
	h.flags[h.pos] = anomalous
	if anomalous {
		h.bad++
	}
	// Conditional wrap, not modulo: four rings advance on every sample,
	// and an integer divide per ring is measurable on the push path.
	h.pos++
	if h.pos == len(h.flags) {
		h.pos = 0
	}
}

//fallvet:hotpath
func (h *healthRing) health() Health {
	switch {
	case h.bad == 0:
		return HealthHealthy
	case float64(h.bad) > faultedFraction*float64(len(h.flags)):
		return HealthFaulted
	default:
		return HealthDegraded
	}
}

// FaultStats counts the anomalies a detector has absorbed since the
// last Reset; it is diagnostic surface for deployment telemetry and
// for the robustness harness's "zero NaN scores" acceptance gate.
type FaultStats struct {
	// Quarantined counts samples rejected for non-finite components.
	Quarantined int
	// Missing counts samples reported absent via PushMissing.
	Missing int
	// Bridged counts missing/quarantined samples reconstructed by
	// sample-and-hold (short gaps only).
	Bridged int
	// Clamped counts samples clipped to the sensor full-scale range.
	Clamped int
	// Holdoffs counts long gaps that forced a filter re-prime and a
	// full-window warm-up before classification resumed.
	Holdoffs int
	// BadScores counts classifier outputs that were non-finite and
	// sanitised to 0 (should stay 0: the input guards exist so the
	// model never sees garbage).
	BadScores int
	// GyroHeld counts samples whose gyroscope reading was non-finite
	// while the accelerometer stayed good; the last finite angular
	// rate was substituted and the gyro/Euler groups marked anomalous.
	GyroHeld int
	// AccStuck counts samples on which the accelerometer was deemed
	// stuck: the whole vector bit-identical for stuckRunSamples, or any
	// single previously-live axis latched for as long.
	AccStuck int
	// GyroStuck counts samples on which the gyroscope was deemed stuck,
	// by the same whole-vector or per-axis criterion.
	GyroStuck int
	// AccDrift counts samples on which the accelerometer-magnitude
	// baseline was a confirmed high-side drift (see driftTrack).
	AccDrift int
	// GyroDrift counts samples on which a gyro-axis baseline was a
	// confirmed drift.
	GyroDrift int
}
