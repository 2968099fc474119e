// Package fault models the ways a body-worn IMU misbehaves in the
// field — dropped samples, full-scale clipping during impacts, noise,
// slow bias drift, stuck channels, NaN/Inf bursts from a flaky bus and
// sample-clock jitter — as composable, seed-deterministic injectors.
// The same injector corrupts offline dataset trials (for robustness
// sweeps) and live sample streams (for streaming-pipeline tests), so
// the evaluation harness can measure how much each fault class costs
// the detector relative to a clean baseline.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/imu"
)

// Effect is what an injector decides happens to one sample's delivery.
type Effect int

const (
	// Pass delivers the (possibly modified) sample.
	Pass Effect = iota
	// Drop loses the sample: the detector sees a gap where the stream
	// application should call Detector.PushMissing (see Replay).
	Drop
	// Repeat delivers the sample twice — the sample-clock ran fast
	// (jitter), so the consumer sees a duplicated instant.
	Repeat
)

// Injector corrupts a sample stream one reading at a time. Injectors
// are stateful (gaps span samples, drift accumulates) and
// deterministic: Reset rewinds the internal RNG and counters to the
// constructed seed, so the same injector replayed over the same stream
// produces the same corruption.
type Injector interface {
	Name() string
	// Apply corrupts one incoming sample and reports its delivery
	// effect. The returned sample is meaningful only for Pass/Repeat.
	Apply(s imu.Sample) (imu.Sample, Effect)
	// Reset rewinds the injector to its initial deterministic state.
	Reset()
}

// Kind enumerates the fault taxonomy for severity-swept evaluation.
type Kind int

const (
	// KindDropout loses samples in short bursts (radio/bus stalls).
	KindDropout Kind = iota
	// KindSaturation clips readings to a reduced full-scale range, as
	// a misconfigured or cheaper sensor would during violent motion.
	KindSaturation
	// KindNoise adds white Gaussian noise to every channel.
	KindNoise
	// KindDrift accumulates a slow additive bias (temperature drift).
	KindDrift
	// KindStuck freezes one accelerometer channel at a past value.
	KindStuck
	// KindNaNBurst replaces short runs of samples with NaN/Inf garbage.
	KindNaNBurst
	// KindJitter drops or duplicates samples as a skewed sample clock
	// would.
	KindJitter
	// KindGyroNaN kills the gyroscope die: after a random onset every
	// gyro reading is NaN while the accelerometer keeps delivering —
	// the separate-chip failure mode a three-branch detector can
	// survive on its accelerometer branch alone.
	KindGyroNaN
	// KindGyroStuck freezes all three gyro channels at their last
	// pre-fault values (a latched gyro DMA lane) while the
	// accelerometer keeps delivering.
	KindGyroStuck
)

// Kinds lists every fault kind, in sweep order.
func Kinds() []Kind {
	return []Kind{KindDropout, KindSaturation, KindNoise, KindDrift,
		KindStuck, KindNaNBurst, KindJitter, KindGyroNaN, KindGyroStuck}
}

func (k Kind) String() string {
	switch k {
	case KindDropout:
		return "dropout"
	case KindSaturation:
		return "saturation"
	case KindNoise:
		return "noise"
	case KindDrift:
		return "drift"
	case KindStuck:
		return "stuck"
	case KindNaNBurst:
		return "nan-burst"
	case KindJitter:
		return "jitter"
	case KindGyroNaN:
		return "gyro-nan"
	case KindGyroStuck:
		return "gyro-stuck"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// New builds an injector of the given kind at a severity in [0, 1]
// (clamped), mapping severity onto each model's physical parameters:
// severity 0.25 is a "moderate" field fault (≈5 % dropout, ≈0.1 g
// noise), severity 1 is a broken sensor.
func New(kind Kind, severity float64, seed int64) Injector {
	s := math.Max(0, math.Min(1, severity))
	switch kind {
	case KindDropout:
		return NewDropout(0.2*s, 1+int(4*s), seed)
	case KindSaturation:
		return NewSaturation(8-6*s, 2000-1700*s)
	case KindNoise:
		return NewNoise(0.4*s, 60*s, seed)
	case KindDrift:
		return NewDrift(0.002*s, 0.2*s)
	case KindStuck:
		return NewStuck(imu.AccZ, s, seed)
	case KindNaNBurst:
		return NewNaNBurst(0.01*s, 1+int(9*s), seed)
	case KindJitter:
		return NewJitter(0.05*s, 0.05*s, seed)
	case KindGyroNaN:
		return NewGyroFault(GyroNaN, s, seed)
	case KindGyroStuck:
		return NewGyroFault(GyroStuck, s, seed)
	default:
		panic(fmt.Sprintf("fault: unknown kind %d", int(kind)))
	}
}

// Dropout loses samples in bursts: each gap starts with a probability
// tuned so the long-run lost fraction approaches Rate, and runs for a
// uniform 1..MaxGap samples.
type Dropout struct {
	Rate   float64 // target long-run fraction of lost samples
	MaxGap int     // longest single gap, samples

	seed    int64
	rng     *rand.Rand
	gapLeft int
}

// NewDropout returns a burst-dropout injector.
func NewDropout(rate float64, maxGap int, seed int64) *Dropout {
	if maxGap < 1 {
		maxGap = 1
	}
	d := &Dropout{Rate: rate, MaxGap: maxGap, seed: seed}
	d.Reset()
	return d
}

func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%.0f%%)", 100*d.Rate) }

// Reset implements Injector.
func (d *Dropout) Reset() {
	d.rng = rand.New(rand.NewSource(d.seed))
	d.gapLeft = 0
}

// Apply implements Injector.
func (d *Dropout) Apply(s imu.Sample) (imu.Sample, Effect) {
	if d.gapLeft > 0 {
		d.gapLeft--
		return s, Drop
	}
	meanGap := float64(1+d.MaxGap) / 2
	if d.Rate > 0 && d.rng.Float64() < d.Rate/meanGap {
		d.gapLeft = d.rng.Intn(d.MaxGap) // this sample + gapLeft more
		return s, Drop
	}
	return s, Pass
}

// Saturation clips every reading to a symmetric full-scale range —
// the fault is a range misconfiguration (e.g. ±2 g instead of ±8 g),
// which flattens exactly the impact spikes the detector keys on.
type Saturation struct {
	FullScaleG   float64 // accelerometer clip, g
	FullScaleDPS float64 // gyroscope clip, deg/s
}

// NewSaturation returns a clipping injector.
func NewSaturation(fullScaleG, fullScaleDPS float64) *Saturation {
	return &Saturation{FullScaleG: fullScaleG, FullScaleDPS: fullScaleDPS}
}

func (sa *Saturation) Name() string {
	return fmt.Sprintf("saturation(±%.1fg, ±%.0fdps)", sa.FullScaleG, sa.FullScaleDPS)
}

// Reset implements Injector (stateless).
func (sa *Saturation) Reset() {}

func clampVec(v imu.Vec3, lim float64) imu.Vec3 {
	return imu.Vec3{
		X: math.Max(-lim, math.Min(lim, v.X)),
		Y: math.Max(-lim, math.Min(lim, v.Y)),
		Z: math.Max(-lim, math.Min(lim, v.Z)),
	}
}

// Apply implements Injector.
func (sa *Saturation) Apply(s imu.Sample) (imu.Sample, Effect) {
	s.Acc = clampVec(s.Acc, sa.FullScaleG)
	s.Gyro = clampVec(s.Gyro, sa.FullScaleDPS)
	return s, Pass
}

// Noise adds zero-mean Gaussian noise per channel.
type Noise struct {
	SigmaAccG    float64
	SigmaGyroDPS float64

	seed int64
	rng  *rand.Rand
}

// NewNoise returns an additive-noise injector.
func NewNoise(sigmaAccG, sigmaGyroDPS float64, seed int64) *Noise {
	n := &Noise{SigmaAccG: sigmaAccG, SigmaGyroDPS: sigmaGyroDPS, seed: seed}
	n.Reset()
	return n
}

func (n *Noise) Name() string {
	return fmt.Sprintf("noise(σ=%.2fg, %.0fdps)", n.SigmaAccG, n.SigmaGyroDPS)
}

// Reset implements Injector.
func (n *Noise) Reset() { n.rng = rand.New(rand.NewSource(n.seed)) }

// Apply implements Injector.
func (n *Noise) Apply(s imu.Sample) (imu.Sample, Effect) {
	s.Acc.X += n.rng.NormFloat64() * n.SigmaAccG
	s.Acc.Y += n.rng.NormFloat64() * n.SigmaAccG
	s.Acc.Z += n.rng.NormFloat64() * n.SigmaAccG
	s.Gyro.X += n.rng.NormFloat64() * n.SigmaGyroDPS
	s.Gyro.Y += n.rng.NormFloat64() * n.SigmaGyroDPS
	s.Gyro.Z += n.rng.NormFloat64() * n.SigmaGyroDPS
	return s, Pass
}

// Drift accumulates a slow additive bias on every axis, the signature
// of temperature drift on an uncalibrated MEMS part.
type Drift struct {
	AccPerSampleG    float64
	GyroPerSampleDPS float64

	step int
}

// NewDrift returns a bias-ramp injector.
func NewDrift(accPerSampleG, gyroPerSampleDPS float64) *Drift {
	return &Drift{AccPerSampleG: accPerSampleG, GyroPerSampleDPS: gyroPerSampleDPS}
}

func (dr *Drift) Name() string {
	return fmt.Sprintf("drift(%.1fg/s)", dr.AccPerSampleG*dataset.SampleRate)
}

// Reset implements Injector.
func (dr *Drift) Reset() { dr.step = 0 }

// Apply implements Injector.
func (dr *Drift) Apply(s imu.Sample) (imu.Sample, Effect) {
	dr.step++
	b := float64(dr.step)
	s.Acc.Z += b * dr.AccPerSampleG
	s.Gyro.X += b * dr.GyroPerSampleDPS
	return s, Pass
}

// Stuck freezes one feature channel at its last pre-fault value — a
// dead ADC lane. Whether the fault engages at all is itself random
// (probability Engage per Reset), so severity sweeps mix healthy and
// stuck replays.
type Stuck struct {
	Channel int     // imu channel index, accelerometer or gyroscope
	Engage  float64 // probability the fault manifests in a given replay

	seed    int64
	rng     *rand.Rand
	after   int // sample index the channel freezes at (-1: never)
	step    int
	held    float64
	holding bool
}

// NewStuck returns a stuck-at-channel injector.
func NewStuck(channel int, engage float64, seed int64) *Stuck {
	st := &Stuck{Channel: channel, Engage: engage, seed: seed}
	st.Reset()
	return st
}

func (st *Stuck) Name() string {
	return fmt.Sprintf("stuck(%s)", imu.ChannelName(st.Channel))
}

// Reset implements Injector.
func (st *Stuck) Reset() {
	st.rng = rand.New(rand.NewSource(st.seed))
	st.after = -1
	if st.rng.Float64() < st.Engage {
		st.after = 50 + st.rng.Intn(100)
	}
	st.step = 0
	st.holding = false
}

// Apply implements Injector.
func (st *Stuck) Apply(s imu.Sample) (imu.Sample, Effect) {
	st.step++
	if st.after < 0 || st.step < st.after {
		return s, Pass
	}
	f := s.Features()
	if !st.holding {
		st.held = f[st.Channel]
		st.holding = true
	}
	f[st.Channel] = st.held
	return imu.FromFeatures(f), Pass
}

// NaNBurst replaces short runs of samples with non-finite garbage, as
// a glitching bus or DMA underrun does. Alternating bursts carry NaN
// and ±Inf so consumers are exercised on both.
type NaNBurst struct {
	StartProb float64 // per-sample probability a burst begins
	MaxLen    int     // longest burst, samples

	seed      int64
	rng       *rand.Rand
	burstLeft int
	useInf    bool
}

// NewNaNBurst returns a non-finite-burst injector.
func NewNaNBurst(startProb float64, maxLen int, seed int64) *NaNBurst {
	if maxLen < 1 {
		maxLen = 1
	}
	nb := &NaNBurst{StartProb: startProb, MaxLen: maxLen, seed: seed}
	nb.Reset()
	return nb
}

func (nb *NaNBurst) Name() string { return fmt.Sprintf("nan-burst(p=%.3f)", nb.StartProb) }

// Reset implements Injector.
func (nb *NaNBurst) Reset() {
	nb.rng = rand.New(rand.NewSource(nb.seed))
	nb.burstLeft = 0
	nb.useInf = false
}

// Apply implements Injector.
func (nb *NaNBurst) Apply(s imu.Sample) (imu.Sample, Effect) {
	if nb.burstLeft == 0 {
		if nb.rng.Float64() >= nb.StartProb {
			return s, Pass
		}
		nb.burstLeft = 1 + nb.rng.Intn(nb.MaxLen)
		nb.useInf = !nb.useInf
	}
	nb.burstLeft--
	bad := math.NaN()
	if nb.useInf {
		bad = math.Inf(1)
	}
	s.Acc = imu.Vec3{X: bad, Y: bad, Z: bad}
	s.Gyro = imu.Vec3{X: bad, Y: -bad, Z: bad}
	return s, Pass
}

// GyroFailMode selects how a GyroFault corrupts the gyroscope stream.
type GyroFailMode int

const (
	// GyroNaN: every post-onset gyro reading is NaN (dead die, the bus
	// returns garbage that decodes non-finite).
	GyroNaN GyroFailMode = iota
	// GyroStuck: post-onset gyro readings latch at the last pre-fault
	// value (a frozen DMA lane delivering stale registers).
	GyroStuck
)

// GyroFault is a gyroscope-only failure: the accelerometer keeps
// delivering while the gyro die dies mid-stream. Whether the fault
// engages in a given replay is random (probability Engage per Reset,
// the severity knob), so a sweep mixes healthy and gyro-blind replays.
// This is the fault class a multi-branch detector should survive by
// degrading to its accelerometer branch instead of going blind.
type GyroFault struct {
	Mode   GyroFailMode
	Engage float64 // probability the fault manifests in a given replay

	seed    int64
	rng     *rand.Rand
	after   int // sample index the gyro dies at (-1: never)
	step    int
	held    imu.Vec3
	holding bool
}

// NewGyroFault returns a gyro-only failure injector.
func NewGyroFault(mode GyroFailMode, engage float64, seed int64) *GyroFault {
	g := &GyroFault{Mode: mode, Engage: engage, seed: seed}
	g.Reset()
	return g
}

func (g *GyroFault) Name() string {
	if g.Mode == GyroStuck {
		return fmt.Sprintf("gyro-stuck(p=%.2f)", g.Engage)
	}
	return fmt.Sprintf("gyro-nan(p=%.2f)", g.Engage)
}

// Reset implements Injector.
func (g *GyroFault) Reset() {
	g.rng = rand.New(rand.NewSource(g.seed))
	g.after = -1
	if g.rng.Float64() < g.Engage {
		g.after = 50 + g.rng.Intn(100)
	}
	g.step = 0
	g.holding = false
}

// Apply implements Injector.
func (g *GyroFault) Apply(s imu.Sample) (imu.Sample, Effect) {
	g.step++
	if g.after < 0 || g.step < g.after {
		g.held = s.Gyro
		g.holding = true
		return s, Pass
	}
	if g.Mode == GyroStuck {
		if g.holding {
			s.Gyro = g.held
		}
		return s, Pass
	}
	bad := math.NaN()
	s.Gyro = imu.Vec3{X: bad, Y: bad, Z: bad}
	return s, Pass
}

// Jitter models sample-clock skew at the consumer's fixed processing
// rate: a slow producer clock looks like occasional missing samples, a
// fast one like occasional duplicates.
type Jitter struct {
	DropProb   float64
	RepeatProb float64

	seed int64
	rng  *rand.Rand
}

// NewJitter returns a clock-jitter injector.
func NewJitter(dropProb, repeatProb float64, seed int64) *Jitter {
	j := &Jitter{DropProb: dropProb, RepeatProb: repeatProb, seed: seed}
	j.Reset()
	return j
}

func (j *Jitter) Name() string {
	return fmt.Sprintf("jitter(drop=%.2f, repeat=%.2f)", j.DropProb, j.RepeatProb)
}

// Reset implements Injector.
func (j *Jitter) Reset() { j.rng = rand.New(rand.NewSource(j.seed)) }

// Apply implements Injector.
func (j *Jitter) Apply(s imu.Sample) (imu.Sample, Effect) {
	u := j.rng.Float64()
	switch {
	case u < j.DropProb:
		return s, Drop
	case u < j.DropProb+j.RepeatProb:
		return s, Repeat
	default:
		return s, Pass
	}
}

// Chain applies injectors left to right; the strictest delivery effect
// wins (Drop > Repeat > Pass).
type Chain []Injector

// Name implements Injector.
func (c Chain) Name() string {
	names := make([]string, len(c))
	for i, inj := range c {
		names[i] = inj.Name()
	}
	return fmt.Sprintf("chain%v", names)
}

// Reset implements Injector.
func (c Chain) Reset() {
	for _, inj := range c {
		inj.Reset()
	}
}

// Apply implements Injector.
func (c Chain) Apply(s imu.Sample) (imu.Sample, Effect) {
	eff := Pass
	for _, inj := range c {
		var e Effect
		s, e = inj.Apply(s)
		if e > eff {
			eff = e
		}
	}
	return s, eff
}

// Replay streams samples into a pipeline through inj, resetting the
// injector first, and returns the index of the first sample whose
// delivery triggered, or −1. Each effect maps onto pipeline calls: a
// Drop is one missing sample, a Repeat pushes the sample twice and
// keeps the second result (the duplicate's first delivery never counts
// as the trigger), a Pass pushes the possibly corrupted sample. A nil
// injector pushes the clean stream. push and missing receive the
// sample index and report whether that delivery triggered; the replay
// stops at the first one that did.
func Replay(samples []imu.Sample, inj Injector, push func(i int, s imu.Sample) bool, missing func(i int) bool) int {
	if inj != nil {
		inj.Reset()
	}
	for i, s := range samples {
		eff := Pass
		if inj != nil {
			s, eff = inj.Apply(s)
		}
		fired := false
		switch eff {
		case Drop:
			fired = missing(i)
		case Repeat:
			push(i, s)
			fired = push(i, s)
		case Pass:
			fired = push(i, s)
		}
		if fired {
			return i
		}
	}
	return -1
}

// ApplyTrial returns a corrupted deep copy of a trial, resetting the
// injector first. The copy preserves the sample count and therefore
// the fall annotations: a Drop becomes a sample-and-hold of the last
// delivered reading (what a latching sensor driver emits across a
// gap), and a Repeat keeps the single original sample. Streaming
// consumers that can represent true gaps should corrupt the live
// stream instead (Replay), where Drop maps onto the detector's
// missing-sample path.
func ApplyTrial(t *dataset.Trial, inj Injector) *dataset.Trial {
	out := *t
	out.Samples = make([]imu.Sample, len(t.Samples))
	inj.Reset()
	var last imu.Sample
	haveLast := false
	for i, s := range t.Samples {
		cs, eff := inj.Apply(s)
		switch eff {
		case Drop:
			if haveLast {
				out.Samples[i] = last
			} // else: zero sample, the driver's power-on default
		case Pass, Repeat:
			// A batch rewrite cannot lengthen the trial, so a Repeat
			// keeps the single original sample.
			out.Samples[i] = cs
			last, haveLast = cs, true
		}
	}
	return &out
}
