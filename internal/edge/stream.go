package edge

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/dsp"
	"repro/internal/fault"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Detector is the on-device real-time pipeline: each incoming
// accelerometer+gyroscope sample is fused into Euler angles, low-pass
// filtered causally (the streaming counterpart of the offline
// zero-phase filter), and pushed into a ring buffer; every Step
// samples, the most recent Window samples are classified.
//
// The pipeline does not trust its sensor. Non-finite readings are
// quarantined, readings beyond the sensor full-scale range are
// clamped, and missing samples (reported via PushMissing) are bridged
// by sample-and-hold when the gap is short or force a filter re-prime
// plus a full-window warm-up when it is not — classifying a ring
// buffer that is half stale is how a fall gets missed or an airbag
// fires on garbage. The resulting Healthy/Degraded/Faulted state is
// surfaced on every Result.
//
// The scalar parameter S selects the compiled inference width: the
// ring buffer, the filtered samples and the attached incremental
// scorers all run at S. Raw sensor readings, the attitude fusion, the
// filter accumulators and every health/fault observer stay float64 at
// both widths — quarantine and stuck/drift detection must judge the
// sensor's actual values, not their rounded shadows, and IIR state
// compounds rounding (a biquad's z1/z2 feed back into themselves every
// sample). So ingest rounds each sample to S, runs the float64
// dsp.Filter on it and rounds the output to S, as fixed-point firmware
// keeps a wider accumulator than its sample format; at float64 both
// roundings are identities. DetectorOf[float64] is the reference
// pipeline, bit-identical to the pre-generic implementation;
// DetectorOf[float32] is the deployment width, scoring through lowered
// model snapshots.
type DetectorOf[S tensor.Scalar] struct {
	Window, Step int
	Threshold    float64

	//fallvet:derived immutable classifier reference, bound at construction; snapshots carry pipeline state, not weights
	clf     model.Classifier
	filters [imu.NumChannels]*dsp.Filter
	fusion  *imu.Fusion

	ring  []S // Window × 9, circular by row
	count int // samples ingested
	//fallvet:derived count % Window, recomputed from count on Reset/ReadState
	slot int
	//fallvet:derived preallocated classifier input scratch (Window × 9), refilled from the ring before every classification
	win *tensor.Of[S]
	// win64 is the float64 face of win for batch classifiers, which
	// score float64 tensors at every width. At S=float64 it aliases
	// win's storage (same buffer, zero cost); at S=float32 it is a
	// separate scratch that ScoreWindow widens the assembled window
	// into — exact, since float32→float64 loses nothing.
	//fallvet:derived float64 alias/widening scratch for win, established at construction
	win64 *tensor.Tensor

	// strideCtr counts down to the next stride boundary and atStride
	// latches whether count currently sits on one — together they are
	// the divide-free form of (count-Window)%Step == 0, maintained by
	// ingest and recomputed from count on Reset/ReadState.
	strideCtr int  //fallvet:derived recomputed from count by syncStride on Reset/ReadState
	atStride  bool //fallvet:derived recomputed from count by syncStride on Reset/ReadState

	// streams holds incremental scorers attached to classifiers
	// (DESIGN.md §12): every ingested row feeds them, and ScoreWindow
	// answers from the cached conv/pool rings instead of re-running
	// the network over the full window. Attachment is best-effort —
	// a classifier the nn.StreamerOf cannot cache simply scores in
	// batch form, bit-identically.
	//fallvet:derived incremental-scorer cache, rebuilt row by row via rebuildStream after ReadState
	streams []attachedStreamOf[S]

	reprime     bool // filters must re-prime on the next real sample
	gapRun      int  // consecutive missing/quarantined samples so far
	freshNeeded int  // samples to ingest before classification resumes
	lastRow     [imu.NumChannels]float64
	haveLast    bool
	health      *healthRing
	groups      [NumGroups]*healthRing
	accRun      stuckRun
	gyroRun     stuckRun
	accAxes     [3]axisRun
	gyroAxes    [3]axisRun
	drift       driftTrack
	heldGyro    imu.Vec3 // last finite gyro reading, for gyro-only holds
	stats       FaultStats

	// snapF stages per-filter state during AppendState so a snapshot
	// cadence allocates nothing at steady state.
	snapF []float64
}

// Detector is the float64 reference detector — the exact pre-generic
// pipeline, and the width every training and evaluation path uses.
type Detector = DetectorOf[float64]

// attachedStreamOf pairs a classifier with its incremental scorer.
type attachedStreamOf[S tensor.Scalar] struct {
	clf model.Classifier
	st  *nn.StreamerOf[S]
}

// DefaultThreshold is the trigger probability applied when
// DetectorConfig.Threshold is left at its zero value.
const DefaultThreshold = 0.5

// ThresholdAlways is an explicit zero decision threshold: every
// evaluated window triggers. Any negative Threshold selects it — the
// zero value of DetectorConfig.Threshold means "unset" and picks
// DefaultThreshold instead, so a literal 0 needs a distinct spelling.
const ThresholdAlways = -1.0

// maxBridgeSamples is the longest gap (in samples) bridged by
// sample-and-hold; 50 ms at 100 Hz. Longer gaps cannot be papered
// over — the pipeline re-primes and warms up instead.
const maxBridgeSamples = 5

// fullScaleG and fullScaleDPS are the sensor full-scale ranges:
// incoming readings are clamped to ±16 g and ±2000 deg/s, as the
// physical part would clip them — the widest common MEMS configuration.
const (
	fullScaleG   = 16.0
	fullScaleDPS = 2000.0
)

// DetectorConfig sizes the streaming pipeline.
type DetectorConfig struct {
	// WindowMS and Overlap mirror the training segmentation.
	WindowMS int
	Overlap  float64
	// Threshold is the trigger probability. The zero value selects
	// DefaultThreshold (0.5); negative values select an explicit
	// threshold of 0 (see ThresholdAlways).
	Threshold float64
}

// NewDetectorOf builds the pipeline around a trained classifier at
// scalar width S. At float32 the classifier's network weights are
// lowered once at attach time (see AttachStream); classifiers without
// an attachable incremental scorer fall back to batch scoring through
// an exact float64 widening of the assembled window.
func NewDetectorOf[S tensor.Scalar](clf model.Classifier, cfg DetectorConfig) (*DetectorOf[S], error) {
	win := cfg.WindowMS * dataset.SampleRate / 1000
	if win < 2 {
		return nil, fmt.Errorf("edge: window %d ms too short", cfg.WindowMS)
	}
	if cfg.Overlap < 0 || cfg.Overlap >= 1 {
		return nil, fmt.Errorf("edge: overlap %g outside [0,1)", cfg.Overlap)
	}
	thr := cfg.Threshold
	switch {
	case thr == 0:
		thr = DefaultThreshold
	case thr < 0:
		thr = 0
	}
	d := &DetectorOf[S]{
		Window:    win,
		Step:      dsp.Step(win, cfg.Overlap),
		Threshold: thr,
		clf:       clf,
		fusion:    imu.MustNewFusion(dataset.SampleRate, 0.5),
		ring:      make([]S, win*imu.NumChannels),
		win:       tensor.NewOf[S](win, imu.NumChannels),
		reprime:   true,
		health:    newHealthRing(win),
	}
	if t, ok := any(d.win).(*tensor.Tensor); ok {
		d.win64 = t // float64: the same storage, no widening ever needed
	} else {
		d.win64 = tensor.New(win, imu.NumChannels)
	}
	for g := range d.groups {
		d.groups[g] = newHealthRing(win)
	}
	for c := range d.filters {
		d.filters[c] = dsp.MustButterworth(4, 5, dataset.SampleRate)
	}
	d.syncStride()
	d.AttachStream(clf)
	return d, nil
}

// AttachStream attaches an incremental scorer (nn.StreamerOf) to clf:
// subsequent ScoreWindow(clf) calls at aligned strides answer from
// cached per-layer rings instead of re-running the network over the
// whole window, bit-identically. It returns false — and the
// classifier keeps scoring in batch form — when clf is not a network
// model or its topology cannot be cached (MLP, recurrent, a branch
// stack other than Conv1D→ReLU→MaxPool1D, misaligned pooling).
// Attaching the same classifier twice is a no-op.
func (d *DetectorOf[S]) AttachStream(clf model.Classifier) bool {
	for i := range d.streams {
		if d.streams[i].clf == clf {
			return true
		}
	}
	nm, ok := clf.(*model.NetModel)
	if !ok {
		return false
	}
	st, err := nn.NewStreamerOf[S](nm.Net, nn.StreamConfig{
		InCh:   imu.NumChannels,
		Window: d.Window,
		Step:   d.Step,
		// The detector re-bases yaw per window (see assembleWindow);
		// the streamer recomputes branches reading it in batch form.
		RebaseCols: []int{imu.EulerYaw},
	})
	if err != nil || !st.Streaming() {
		return false
	}
	d.streams = append(d.streams, attachedStreamOf[S]{clf: clf, st: st})
	d.rebuildStream(len(d.streams) - 1)
	return true
}

// rebuildStream replays the ring into stream i so its caches reach
// the exact state of a streamer that saw every row — the invariant
// nn.StreamerOf.Restart documents. Used at attach and state restore.
func (d *DetectorOf[S]) rebuildStream(i int) {
	st := d.streams[i].st
	n := d.count
	if n > d.Window {
		n = d.Window
	}
	st.Restart(d.count - n)
	start := (d.count - n) % d.Window
	for j := 0; j < n; j++ {
		slot := (start + j) % d.Window
		st.Push(d.ring[slot*imu.NumChannels : (slot+1)*imu.NumChannels])
	}
}

// Reset clears all pipeline state, including health and fault
// counters.
func (d *DetectorOf[S]) Reset() {
	d.count = 0
	d.syncStride()
	d.fusion.Reset()
	for c := range d.filters {
		d.filters[c].Reset()
	}
	for i := range d.ring {
		d.ring[i] = 0
	}
	d.reprime = true
	d.gapRun = 0
	d.freshNeeded = 0
	d.haveLast = false
	d.health.reset()
	for g := range d.groups {
		d.groups[g].reset()
	}
	d.accRun.reset()
	d.gyroRun.reset()
	for i := range d.accAxes {
		d.accAxes[i].reset()
		d.gyroAxes[i].reset()
	}
	d.drift.reset()
	d.heldGyro = imu.Vec3{}
	d.stats = FaultStats{}
	for i := range d.streams {
		d.streams[i].st.Reset()
	}
}

// Health reports the pipeline's current degradation state.
func (d *DetectorOf[S]) Health() Health { return d.health.health() }

// GroupHealth reports the per-channel-group degradation state. Unlike
// the overall Health it does not gate the base detector's evaluation;
// it exists for a supervising cascade to decide which model tier the
// ring buffer can still support (a dead gyroscope poisons the gyro and
// Euler branches, but the accelerometer columns stay trustworthy).
//
//fallvet:hotpath
func (d *DetectorOf[S]) GroupHealth() GroupHealth {
	return GroupHealth{
		Acc:   d.groups[GroupAcc].health(),
		Gyro:  d.groups[GroupGyro].health(),
		Euler: d.groups[GroupEuler].health(),
	}
}

// Stats returns the fault counters accumulated since the last Reset.
func (d *DetectorOf[S]) Stats() FaultStats { return d.stats }

// Result is one Push outcome.
type Result struct {
	// Evaluated is true when this sample completed a stride and the
	// classifier ran.
	Evaluated bool
	// Probability is the classifier output when Evaluated.
	Probability float64
	// Triggered is true when the probability crossed the threshold.
	Triggered bool
	// Health is the pipeline's degradation state after this sample.
	Health Health
	// Quarantined is true when the pushed sample carried non-finite
	// values and was treated as missing.
	Quarantined bool
	// Clamped is true when a component exceeded the sensor full-scale
	// range and was clipped.
	Clamped bool
}

//fallvet:hotpath
func finiteVec(v imu.Vec3) bool {
	// x−x is +0 for every finite x and NaN for ±Inf/NaN, so the sum is
	// 0 exactly when all three components are real numbers. Branchless,
	// unlike six IsNaN/IsInf tests, and this runs twice per sample.
	return (v.X-v.X)+(v.Y-v.Y)+(v.Z-v.Z) == 0
}

// clamp1 clips one component to ±lim, recording whether it clipped.
// A named function rather than a closure: the capture would be the
// only heap traffic on the push path.
//
//fallvet:hotpath
func clamp1(x, lim float64, clipped *bool) float64 {
	if x > lim {
		*clipped = true
		return lim
	}
	if x < -lim {
		*clipped = true
		return -lim
	}
	return x
}

//fallvet:hotpath
func clampFull(v imu.Vec3, lim float64, clipped *bool) imu.Vec3 {
	return imu.Vec3{
		X: clamp1(v.X, lim, clipped),
		Y: clamp1(v.Y, lim, clipped),
		Z: clamp1(v.Z, lim, clipped),
	}
}

// Push ingests one raw sample (acceleration in g, angular rate in
// deg/s) and runs the classifier when a stride completes. Non-finite
// accelerometer samples never reach the filters or the model: they are
// quarantined and handled exactly like a missing sample. A non-finite
// gyroscope with a finite accelerometer is held instead (the last good
// angular rate is substituted): the accelerometer columns stay live
// while the gyro and Euler groups are marked anomalous, so a cascade
// can keep classifying on the branch that still has real data.
//
//fallvet:hotpath
func (d *DetectorOf[S]) Push(acc, gyro imu.Vec3) Result {
	return d.push(acc, gyro, true)
}

// Ingest is Push without the classifier: the sample runs the full
// quarantine/clamp/filter/health path and lands in the ring buffer,
// but no evaluation happens even at a stride boundary. A supervising
// cascade ingests every sample exactly once and then decides which
// model tier (if any) to score the window with via ScoreWindow.
//
//fallvet:hotpath
func (d *DetectorOf[S]) Ingest(acc, gyro imu.Vec3) Result {
	return d.push(acc, gyro, false)
}

//fallvet:hotpath
func (d *DetectorOf[S]) push(acc, gyro imu.Vec3, eval bool) Result {
	if !finiteVec(acc) {
		d.stats.Quarantined++
		r := d.absorbMissing(eval)
		r.Quarantined = true
		return r
	}
	gyroHeld := !finiteVec(gyro)
	if gyroHeld {
		// Gyro-only failure: substitute the held reading (zero before
		// the first good sample) so fusion and the ring stay finite.
		d.stats.GyroHeld++
		gyro = d.heldGyro
	}
	clamped := false
	acc = clampFull(acc, fullScaleG, &clamped)
	gyro = clampFull(gyro, fullScaleDPS, &clamped)
	if clamped {
		d.stats.Clamped++
	}
	d.gapRun = 0

	// Stuck detection runs at two granularities: the whole vector
	// (catches a frozen sensor die immediately, even one frozen from
	// the first sample) and per axis with a liveness gate (catches the
	// single dead ADC lane the whole-vector comparison is blind to —
	// the siblings keep moving, so the vectors keep differing).
	accStuck := d.accRun.observe(acc)
	if d.accAxes[0].observe(acc.X) {
		accStuck = true
	}
	if d.accAxes[1].observe(acc.Y) {
		accStuck = true
	}
	if d.accAxes[2].observe(acc.Z) {
		accStuck = true
	}
	if accStuck {
		d.stats.AccStuck++
	}
	accDrift := d.drift.observeAcc(acc)
	if accDrift {
		d.stats.AccDrift++
	}
	gyroAnom := gyroHeld
	gyroDrift := false
	if !gyroHeld {
		d.heldGyro = gyro
		gyroStuck := d.gyroRun.observe(gyro)
		if d.gyroAxes[0].observe(gyro.X) {
			gyroStuck = true
		}
		if d.gyroAxes[1].observe(gyro.Y) {
			gyroStuck = true
		}
		if d.gyroAxes[2].observe(gyro.Z) {
			gyroStuck = true
		}
		if gyroStuck {
			d.stats.GyroStuck++
			gyroAnom = true
		}
		gyroDrift = d.drift.observeGyro(gyro)
		if gyroDrift {
			d.stats.GyroDrift++
		}
	}

	euler := d.fusion.Update(acc, gyro)
	row := [imu.NumChannels]float64{
		acc.X, acc.Y, acc.Z,
		gyro.X, gyro.Y, gyro.Z,
		euler.X, euler.Y, euler.Z,
	}
	d.ingest(row)
	// A held gyro keeps the overall pipeline anomalous — the primary
	// three-branch model must not trust a window whose gyro and Euler
	// columns are reconstructions — but only the affected groups are
	// marked, so the accelerometer branch stays available to a cascade.
	d.health.observe(gyroHeld)
	d.groups[GroupAcc].observe(accStuck || accDrift)
	d.groups[GroupGyro].observe(gyroAnom || gyroDrift)
	d.groups[GroupEuler].observe(gyroAnom || gyroDrift || accStuck || accDrift)
	if d.freshNeeded > 0 {
		d.freshNeeded--
	}
	if !eval {
		r := Result{Health: d.health.health()}
		r.Clamped = clamped
		return r
	}
	r := d.maybeEvaluate()
	r.Clamped = clamped
	return r
}

// PushMissing accounts for n samples the sensor failed to deliver
// (radio stall, bus error, jittering clock). Short gaps (up to
// maxBridgeSamples) are bridged by re-filtering the last good reading
// — the window stays classifiable, at Degraded health. Longer gaps
// abandon bridging: the filters and fusion will re-prime on the next
// real sample and classification is held off until a full window of
// fresh samples has accumulated, so the model never scores a ring
// buffer of stale contents. The returned Result reflects the state
// after the last missing sample.
//
//fallvet:hotpath
func (d *DetectorOf[S]) PushMissing(n int) Result {
	return d.pushMissing(n, true)
}

// IngestMissing is PushMissing without the classifier, mirroring
// Ingest for gap accounting under a supervising cascade.
//
//fallvet:hotpath
func (d *DetectorOf[S]) IngestMissing(n int) Result {
	return d.pushMissing(n, false)
}

//fallvet:hotpath
func (d *DetectorOf[S]) pushMissing(n int, eval bool) Result {
	var r Result
	r.Health = d.health.health()
	for i := 0; i < n; i++ {
		d.stats.Missing++
		r = d.absorbMissing(eval)
	}
	return r
}

// absorbMissing handles one missing (or quarantined) sample.
//
//fallvet:hotpath
func (d *DetectorOf[S]) absorbMissing(eval bool) Result {
	d.gapRun++
	d.health.observe(true)
	d.groups[GroupAcc].observe(true)
	d.groups[GroupGyro].observe(true)
	d.groups[GroupEuler].observe(true)
	if d.gapRun <= maxBridgeSamples && d.haveLast {
		// Bridge: the filters keep running on the held reading, as a
		// latching sensor driver behaves across a short gap.
		d.stats.Bridged++
		d.ingest(d.lastRow)
		if !eval {
			return Result{Health: d.health.health()}
		}
		return d.maybeEvaluate()
	}
	if d.gapRun == maxBridgeSamples+1 {
		// The gap just exceeded what sample-and-hold can honestly
		// cover: schedule a re-prime and a full-window warm-up.
		// (Missing samples before the first real one need no holdoff —
		// the initial window fill already gates classification.)
		if d.count > 0 {
			d.stats.Holdoffs++
			d.freshNeeded = d.Window
		}
		d.reprime = true
		d.fusion.Reset()
		d.haveLast = false
	}
	return Result{Health: d.health.health()}
}

// ingest filters one raw 9-channel row into the ring buffer.
//
//fallvet:hotpath
func (d *DetectorOf[S]) ingest(row [imu.NumChannels]float64) {
	if d.reprime {
		// Prime the causal filters so their startup transient (a ramp
		// up from zero) is not mistaken for free fall — on the very
		// first reading and again after any long gap.
		for c := 0; c < imu.NumChannels; c++ {
			d.filters[c].Prime(float64(S(row[c])))
		}
		d.reprime = false
	}
	slot := d.slot
	for c := 0; c < imu.NumChannels; c++ {
		// Filter in physical units, then apply the same per-channel
		// normalisation the training segments use. Unit scales skip the
		// divide (x/1.0 is the identity, bit for bit) — three of the
		// nine divsd per sample do nothing.
		v := S(d.filters[c].Process(float64(S(row[c]))))
		if s := imu.ChannelScale(c); s != 1 {
			v /= S(s)
		}
		d.ring[slot*imu.NumChannels+c] = v
	}
	for i := range d.streams {
		// Feed the incremental scorers the exact ring row — bridged
		// gaps included — so their caches always mirror the ring.
		d.streams[i].st.Push(d.ring[slot*imu.NumChannels : (slot+1)*imu.NumChannels])
	}
	d.lastRow = row
	d.haveLast = true
	d.count++
	d.slot = slot + 1
	if d.slot == d.Window {
		d.slot = 0
	}
	d.strideCtr--
	if d.strideCtr == 0 {
		d.atStride = true
		d.strideCtr = d.Step
	} else {
		d.atStride = false
	}
}

// syncStride recomputes the divide-free stride/slot bookkeeping from
// the absolute sample count — the slow, obviously-correct form ingest
// maintains incrementally. Called whenever count is set directly
// (construction, Reset, state restore).
func (d *DetectorOf[S]) syncStride() {
	d.slot = d.count % d.Window
	if d.count < d.Window {
		d.strideCtr = d.Window - d.count
		d.atStride = false
		return
	}
	r := (d.count - d.Window) % d.Step
	d.atStride = r == 0
	d.strideCtr = d.Step - r
}

// StrideReady reports whether the current sample count sits on a
// stride boundary: the window is full and Step samples have elapsed
// since the previous boundary. It says nothing about whether the ring
// contents are trustworthy — see WindowFresh and Health for that.
//
//fallvet:hotpath
func (d *DetectorOf[S]) StrideReady() bool {
	return d.atStride
}

// WindowFresh reports whether the ring buffer holds a full window with
// no outstanding warm-up: no long gap has forced a re-prime whose
// fresh-sample quota is still unpaid.
//
//fallvet:hotpath
func (d *DetectorOf[S]) WindowFresh() bool {
	return d.count >= d.Window && d.freshNeeded == 0
}

// assembleWindow copies the ring oldest-first into the preallocated
// input tensor and re-bases yaw, exactly as the training segmentation
// does. The push path must not allocate at steady state.
//
//fallvet:hotpath
func (d *DetectorOf[S]) assembleWindow() *tensor.Of[S] {
	x := d.win
	xd := x.Data()
	start := d.count % d.Window // oldest row slot
	for i := 0; i < d.Window; i++ {
		src := (start + i) % d.Window
		copy(xd[i*imu.NumChannels:(i+1)*imu.NumChannels],
			d.ring[src*imu.NumChannels:(src+1)*imu.NumChannels])
	}
	// Window-relative yaw, matching training segmentation: absolute
	// yaw drifts without bound over long wear (pure gyro integration).
	yaw0 := xd[imu.EulerYaw]
	for i := 0; i < d.Window; i++ {
		xd[i*imu.NumChannels+imu.EulerYaw] -= yaw0
	}
	return x
}

// ScoreWindow scores the current window with the given classifier —
// the detector's own by way of Push, or an alternate tier's model
// under a cascade (the reduced-input fallback reads a column subset
// of the same [Window × 9] tensor). A classifier with an attached
// incremental scorer (see AttachStream) answers from its cached
// conv/pool rings; anything else assembles and scores the full
// window. The two paths are bit-identical (FuzzIncrementalScore).
// The boolean is false when the classifier returned a non-finite
// score, which is sanitised to 0 and counted in Stats().BadScores.
// Callers own the stride/freshness gating; ScoreWindow assumes a
// full ring.
//
//fallvet:hotpath
func (d *DetectorOf[S]) ScoreWindow(clf model.Classifier) (float64, bool) {
	p := math.NaN()
	scored := false
	for i := range d.streams {
		if d.streams[i].clf == clf {
			if d.streams[i].st.Ready() {
				p = d.streams[i].st.Score()
				scored = true
			}
			break
		}
	}
	if !scored {
		w := d.assembleWindow()
		x := d.win64 // float64: w's own storage, already filled
		if !tensor.Is64[S]() {
			x = tensor.Widen(d.win64, w)
		}
		p = clf.Score(x)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		// The input guards should make this unreachable; sanitise
		// anyway so a misbehaving model can never fire the airbag or
		// poison downstream metrics with NaN.
		d.stats.BadScores++
		return 0, false
	}
	return math.Max(0, math.Min(1, p)), true
}

// maybeEvaluate runs the classifier when a stride has completed and
// the pipeline is in a state it trusts.
//
//fallvet:hotpath
func (d *DetectorOf[S]) maybeEvaluate() Result {
	h := d.health.health()
	r := Result{Health: h}
	if !d.StrideReady() {
		return r
	}
	if d.freshNeeded > 0 || h == HealthFaulted {
		// Stride boundary reached, but the ring holds too much
		// reconstructed or stale data to act on.
		return r
	}
	p, ok := d.ScoreWindow(d.clf)
	r.Evaluated = true
	r.Probability = p
	r.Triggered = ok && p >= d.Threshold
	return r
}

// TrialSim is the outcome of replaying one trial through the detector
// with an airbag attached.
type TrialSim = dataset.Outcome

// Simulate replays a trial sample by sample and evaluates the airbag
// deadline: for falls, the detector must fire at least
// AirbagInflationMS before the annotated impact.
func (d *DetectorOf[S]) Simulate(t *dataset.Trial) TrialSim {
	return d.SimulateFaulty(t, nil)
}

// SimulateFaulty replays a trial through the detector with a fault
// injector sitting between the recorded sensor and the pipeline (see
// fault.Replay): a dropped sample becomes a PushMissing gap, a
// repeated sample is pushed twice, everything else is pushed as
// (possibly corrupted) data. A nil injector replays the clean trial.
// Detector and injector are Reset first, so replays are deterministic.
func (d *DetectorOf[S]) SimulateFaulty(t *dataset.Trial, inj fault.Injector) TrialSim {
	d.Reset()
	return t.Outcome(fault.Replay(t.Samples, inj,
		func(_ int, s imu.Sample) bool { return d.Push(s.Acc, s.Gyro).Triggered },
		func(int) bool { return d.PushMissing(1).Triggered }))
}
