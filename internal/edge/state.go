package edge

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/imu"
	"repro/internal/tensor"
)

// Runtime-state snapshots. A warm detector is expensive to lose: the
// ring buffer, the causal filter states, the fused attitude and the
// health history together take a full window (plus any outstanding
// warm-up) to rebuild, and a serving layer that restarts a crashed
// session from scratch goes blind for exactly that long — during which
// a fall is missed. AppendState/ReadState serialize every mutable
// field of the pipeline so a supervisor can checkpoint a live session
// and resume it bit-identically: a restored detector produces the same
// evaluations, probabilities and health transitions as one that never
// crashed. The encoding is the artifact state codec (fixed-width
// little-endian, no reflection); framing, versioning and integrity are
// the caller's job — cascade.Snapshot wraps this in a verified
// artifact envelope.

// detectorStateVersion guards the field layout below. Bump it whenever
// a mutable Detector field is added, removed or reordered.
//
// Version history:
//
//	1 — float64-only pipeline, no dtype tag.
//	2 — scalar-generic pipeline; a dtype word follows the version.
//	    Version-1 images are still read, as float64 (the only width a
//	    version-1 writer could produce).
const detectorStateVersion = 2

// filterKindFloat is the filter-kind word of the encoded state: the
// float Butterworth cascade, the only pre-filter arithmetic. The word
// stays in the layout so state images keep their version-2 shape;
// ReadState rejects any other value.
const filterKindFloat = 0

// AppendState appends the detector's complete mutable state to dst and
// returns the extended slice. The geometry (window, step, filter
// arithmetic) is encoded first and verified on restore, so a snapshot
// can never be applied to a differently-shaped pipeline.
func (d *DetectorOf[S]) AppendState(dst []byte) []byte {
	dst = artifact.AppendUint64(dst, detectorStateVersion)
	dst = artifact.AppendUint64(dst, uint64(tensor.PrecisionOf[S]()))
	dst = artifact.AppendInt(dst, d.Window)
	dst = artifact.AppendInt(dst, d.Step)
	dst = artifact.AppendFloat(dst, d.Threshold)
	dst = artifact.AppendUint64(dst, filterKindFloat)

	dst = artifact.AppendInt(dst, d.count)
	dst = artifact.AppendBool(dst, d.reprime)
	dst = artifact.AppendInt(dst, d.gapRun)
	dst = artifact.AppendInt(dst, d.freshNeeded)
	dst = artifact.AppendBool(dst, d.haveLast)
	for _, v := range d.lastRow {
		dst = artifact.AppendFloat(dst, v)
	}
	dst = appendVec(dst, d.heldGyro)
	for _, v := range d.ring {
		// Widening to the codec's float64 word is exact at both widths,
		// so a float32 ring round-trips bit-for-bit.
		dst = artifact.AppendFloat(dst, float64(v))
	}

	dst = appendHealthRing(dst, d.health)
	for g := range d.groups {
		dst = appendHealthRing(dst, d.groups[g])
	}
	dst = appendStuckRun(dst, &d.accRun)
	dst = appendStuckRun(dst, &d.gyroRun)
	for i := range d.accAxes {
		dst = appendAxisRun(dst, &d.accAxes[i])
	}
	for i := range d.gyroAxes {
		dst = appendAxisRun(dst, &d.gyroAxes[i])
	}
	dst = artifact.AppendInt(dst, d.drift.accN)
	dst = artifact.AppendInt(dst, d.drift.gyroN)
	dst = artifact.AppendFloat(dst, d.drift.accMag)
	dst = appendVec(dst, d.drift.gyro)
	dst = artifact.AppendInt(dst, d.drift.accRun)
	dst = artifact.AppendInt(dst, d.drift.gyroRun)

	dst = artifact.AppendInt(dst, d.stats.Quarantined)
	dst = artifact.AppendInt(dst, d.stats.Missing)
	dst = artifact.AppendInt(dst, d.stats.Bridged)
	dst = artifact.AppendInt(dst, d.stats.Clamped)
	dst = artifact.AppendInt(dst, d.stats.Holdoffs)
	dst = artifact.AppendInt(dst, d.stats.BadScores)
	dst = artifact.AppendInt(dst, d.stats.GyroHeld)
	dst = artifact.AppendInt(dst, d.stats.AccStuck)
	dst = artifact.AppendInt(dst, d.stats.GyroStuck)
	dst = artifact.AppendInt(dst, d.stats.AccDrift)
	dst = artifact.AppendInt(dst, d.stats.GyroDrift)

	for _, fl := range d.filters {
		st := fl.AppendState(d.snapF[:0])
		d.snapF = st
		dst = artifact.AppendInt(dst, len(st))
		for _, v := range st {
			dst = artifact.AppendFloat(dst, v)
		}
	}

	fs := d.fusion.State()
	dst = artifact.AppendFloat(dst, fs.Pitch)
	dst = artifact.AppendFloat(dst, fs.Roll)
	dst = artifact.AppendFloat(dst, fs.Yaw)
	dst = artifact.AppendBool(dst, fs.Primed)
	return dst
}

// ReadState consumes a state image produced by AppendState from r and
// applies it to the detector. The snapshot's geometry must match the
// receiver exactly. On error the detector's state is unspecified — the
// caller must Reset (or discard) the pipeline; it must not keep
// pushing into a half-restored detector.
func (d *DetectorOf[S]) ReadState(r *artifact.StateReader) error {
	v := r.Uint64()
	if r.Err() == nil && v != 1 && v != detectorStateVersion {
		return fmt.Errorf("edge: detector state version %d, this build reads 1..%d", v, detectorStateVersion)
	}
	// Version 1 predates the dtype word; everything it could hold is
	// float64 state.
	dt := tensor.F64
	if v >= 2 {
		// Check the whole word: Precision is a byte, so 256 would
		// narrow to F64.
		w := r.Uint64()
		dt = tensor.Precision(w)
		if r.Err() == nil && (uint64(dt) != w || !dt.Valid()) {
			return fmt.Errorf("edge: detector state dtype %d", w)
		}
	}
	if want := tensor.PrecisionOf[S](); r.Err() == nil && dt != want {
		return fmt.Errorf("edge: snapshot is %s state, detector runs %s", dt, want)
	}
	win, step := r.Int(), r.Int()
	thr := r.Float()
	kind := r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if win != d.Window || step != d.Step || thr != d.Threshold {
		return fmt.Errorf("edge: snapshot geometry %d/%d/%g, detector is %d/%d/%g",
			win, step, thr, d.Window, d.Step, d.Threshold)
	}
	if kind != filterKindFloat {
		return fmt.Errorf("edge: snapshot filter kind %d, this build runs the float cascade (%d)", kind, filterKindFloat)
	}

	d.count = r.Int()
	d.syncStride()
	d.reprime = r.Bool()
	d.gapRun = r.Int()
	d.freshNeeded = r.Int()
	d.haveLast = r.Bool()
	for i := range d.lastRow {
		d.lastRow[i] = r.Float()
	}
	d.heldGyro = readVec(r)
	for i := range d.ring {
		// The dtype check above guarantees the stored words were widened
		// from S, so narrowing back is exact.
		d.ring[i] = S(r.Float())
	}

	if err := readHealthRing(r, d.health); err != nil {
		return err
	}
	for g := range d.groups {
		if err := readHealthRing(r, d.groups[g]); err != nil {
			return err
		}
	}
	readStuckRun(r, &d.accRun)
	readStuckRun(r, &d.gyroRun)
	for i := range d.accAxes {
		readAxisRun(r, &d.accAxes[i])
	}
	for i := range d.gyroAxes {
		readAxisRun(r, &d.gyroAxes[i])
	}
	d.drift.accN = r.Int()
	d.drift.gyroN = r.Int()
	d.drift.accMag = r.Float()
	d.drift.gyro = readVec(r)
	d.drift.accRun = r.Int()
	d.drift.gyroRun = r.Int()

	d.stats.Quarantined = r.Int()
	d.stats.Missing = r.Int()
	d.stats.Bridged = r.Int()
	d.stats.Clamped = r.Int()
	d.stats.Holdoffs = r.Int()
	d.stats.BadScores = r.Int()
	d.stats.GyroHeld = r.Int()
	d.stats.AccStuck = r.Int()
	d.stats.GyroStuck = r.Int()
	d.stats.AccDrift = r.Int()
	d.stats.GyroDrift = r.Int()

	for c, fl := range d.filters {
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n != fl.StateLen() {
			return fmt.Errorf("edge: filter %d state holds %d values, want %d", c, n, fl.StateLen())
		}
		st := make([]float64, n)
		for i := range st {
			st[i] = r.Float()
		}
		if err := r.Err(); err != nil {
			return err
		}
		if err := fl.SetState(st); err != nil {
			return err
		}
	}

	var fs imu.FusionState
	fs.Pitch = r.Float()
	fs.Roll = r.Float()
	fs.Yaw = r.Float()
	fs.Primed = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	d.fusion.SetState(fs)

	// The incremental scoring caches are a pure function of the ring
	// and the absolute sample count (nn.StreamerOf's rebuild invariant),
	// so they are not serialised: replaying the restored ring puts
	// every conv/pool ring and deque in the exact state of a detector
	// that never stopped — which keeps crash-replay decision streams
	// bit-identical without growing the snapshot format.
	for i := range d.streams {
		d.rebuildStream(i)
	}
	return nil
}

func appendVec(dst []byte, v imu.Vec3) []byte {
	dst = artifact.AppendFloat(dst, v.X)
	dst = artifact.AppendFloat(dst, v.Y)
	return artifact.AppendFloat(dst, v.Z)
}

func readVec(r *artifact.StateReader) imu.Vec3 {
	return imu.Vec3{X: r.Float(), Y: r.Float(), Z: r.Float()}
}

func appendHealthRing(dst []byte, h *healthRing) []byte {
	dst = artifact.AppendInt(dst, h.pos)
	dst = artifact.AppendInt(dst, h.bad)
	for _, f := range h.flags {
		dst = artifact.AppendBool(dst, f)
	}
	return dst
}

func readHealthRing(r *artifact.StateReader, h *healthRing) error {
	pos, bad := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if pos < 0 || pos >= len(h.flags) || bad < 0 || bad > len(h.flags) {
		return fmt.Errorf("edge: health ring pos=%d bad=%d outside a %d-slot ring", pos, bad, len(h.flags))
	}
	n := 0
	for i := range h.flags {
		h.flags[i] = r.Bool()
		if h.flags[i] {
			n++
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if n != bad {
		return fmt.Errorf("edge: health ring bad=%d but %d flags set", bad, n)
	}
	h.pos, h.bad = pos, bad
	return nil
}

func appendStuckRun(dst []byte, s *stuckRun) []byte {
	dst = appendVec(dst, s.last)
	dst = artifact.AppendInt(dst, s.run)
	return artifact.AppendBool(dst, s.have)
}

func readStuckRun(r *artifact.StateReader, s *stuckRun) {
	s.last = readVec(r)
	s.run = r.Int()
	s.have = r.Bool()
}

func appendAxisRun(dst []byte, a *axisRun) []byte {
	dst = artifact.AppendFloat(dst, a.last)
	dst = artifact.AppendInt(dst, a.run)
	dst = artifact.AppendBool(dst, a.have)
	return artifact.AppendBool(dst, a.live)
}

func readAxisRun(r *artifact.StateReader, a *axisRun) {
	a.last = r.Float()
	a.run = r.Int()
	a.have = r.Bool()
	a.live = r.Bool()
}
