package serve

import (
	"repro/internal/cascade"
	"repro/internal/imu"
)

// entry is one ingress ring slot: a single data sample or a run of
// missing samples, plus the shed debt accumulated in front of it.
type entry struct {
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	acc, gyro imu.Vec3
	// missing, when > 0, makes this a gap entry of that many raw
	// samples; acc/gyro are unused.
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	missing int
	// shedBefore is how many raw samples were shed from the ring
	// immediately before this entry. The drain converts the debt to
	// PushMissing(shedBefore), so the pipeline sees shed load exactly
	// as a sensor dropout of the same length.
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	shedBefore int
	// deadline is when this entry's decision is due, in nanoseconds
	// on the session clock (Session.now).
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	deadline int64
	// ceiling is the tier ceiling the entry ran at, set when it is
	// logged for replay: the breaker can move it between a snapshot
	// and a crash.
	//fallvet:derived replay-log entry held in memory between snapshots and replayed live; never serialised
	ceiling cascade.Tier
}

// raw is the number of raw stream samples this entry advances the
// pipeline by, shed debt included.
func (e *entry) raw() int { return e.shedBefore + e.own() }

// own is the entry's own raw samples: raw without the shed debt, which
// ring.push counted as shed when it shed those samples.
func (e *entry) own() int {
	if e.missing > 0 {
		return e.missing
	}
	return 1
}

// ring is the fixed-capacity ingress queue. Not self-locking: the
// session's mutex guards it.
type ring struct {
	buf  []entry
	head int // index of oldest entry
	n    int // occupied slots
}

func newRing(capacity int) ring {
	return ring{buf: make([]entry, capacity)}
}

// push appends *e, shedding the oldest entry if the ring is full.
// The shed entry's raw samples fold into the next-oldest entry's
// shedBefore (or into e itself when the ring holds a single slot), so
// no stream position is ever silently lost — shed data degrades to
// missing data, never to skewed alignment. Returns the number of raw
// samples newly shed (0 when the ring had room); debt the shed entry
// was already carrying is folded forward but not counted again.
func (r *ring) push(e *entry) int {
	shed := 0
	if r.n == len(r.buf) {
		old := &r.buf[r.head]
		shed = old.own()
		r.head = r.next(r.head)
		r.n--
		if r.n > 0 {
			r.buf[r.head].shedBefore += old.raw()
		} else {
			e.shedBefore += old.raw()
		}
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = *e
	r.n++
	return shed
}

// pop moves the oldest entry into dst; the caller must check r.n > 0
// first. The vacated slot keeps its stale bytes: entries hold no
// pointers, and push overwrites a slot whole before it is read again.
func (r *ring) pop(dst *entry) {
	*dst = r.buf[r.head]
	r.head = r.next(r.head)
	r.n--
}

// next is the slot after i, wrapping with a compare rather than a
// division.
func (r *ring) next(i int) int {
	if i++; i == len(r.buf) {
		return 0
	}
	return i
}
