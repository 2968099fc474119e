package serve

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cascade"
	"repro/internal/edge"
	"repro/internal/guard"
	"repro/internal/imu"
)

// Session is one supervised stream: a bounded ingress ring drained
// into the session's Pipeline by one goroutine at a time. Producers
// push samples from any goroutine and never block; each push wakes the
// session's worker goroutine. A Quiesce caller that finds queued work
// and no goroutine draining it claims the session and drains the ring
// itself, which saves the lock-step client two goroutine switches per
// packet. Whoever holds the claim owns the pipeline exclusively, so a
// panic inside it is confined to this session and recovered by
// snapshot restore + replay on that goroutine.
type Session struct {
	// ID is the runtime-assigned index, stable for the session's
	// lifetime; the PushHook receives it.
	ID int

	cfg Config
	p   Pipeline
	// epoch is the session clock's zero: now() reads nanoseconds
	// since it, on cfg.Now when set and on the monotonic clock when
	// nil.
	//fallvet:derived clock origin fixed at Open; instants are host-local and never serialised
	epoch time.Time

	mu sync.Mutex
	// wake signals the worker: work queued while unclaimed, or
	// closing. It is apart from idle so that the end of a drain run by
	// a Quiesce caller does not wake the parked worker for nothing.
	wake *sync.Cond
	idle *sync.Cond // broadcast when a claim ends or the session is done
	//fallvet:derived in-memory ingress ring: a restore replays the log and the ring drains live, in-process
	q       ring
	closing bool //fallvet:derived worker lifecycle flag, meaningless across a restore
	// busy is the claim: a goroutine (the worker or a Quiesce caller)
	// is draining the ring and owns the pipeline. Claims are taken and
	// released under mu, which orders each runner after the last.
	busy bool //fallvet:derived drain claim, meaningless across a restore
	done bool //fallvet:derived lifecycle flag (closed and drained, or shed), meaningless across a restore

	state atomic.Int32
	level atomic.Int32 // breaker level, mirrored for lock-free reads

	// pos is the raw stream position: samples fully applied and
	// emitted. Written only by the claim holder, read from anywhere.
	pos atomic.Uint64

	// Replay state, owned by the claim holder (never locked).
	snapImg   []byte // last good snapshot (nil before the first)
	snapSpare []byte // retired snapshot buffer, reused for the next
	snapPos   uint64 // pos at which snapImg was captured
	replayLog []entry
	sinceSnap int
	// cur is the entry being applied and res what it produced: the
	// drain moves each popped entry here once, and the apply, restart
	// and commit steps work on them in place.
	//fallvet:derived entry in flight on the claim holder; a crash re-applies it from here after the replay
	cur entry
	//fallvet:derived decisions of the entry in flight; rewritten by every apply, delivered by commit
	res appliedOut
	//fallvet:derived host-local latency history, rebuilt from live decision timings after a restore
	brk breaker

	outMu sync.Mutex
	//fallvet:derived outbox of already-delivered decisions; replay regenerates or deliberately drops them
	out []cascade.Decision
	//fallvet:derived latched trigger is re-latched by replay if it recurs; delivery state is host-local
	trig cascade.Decision
	//fallvet:derived latched trigger is re-latched by replay if it recurs; delivery state is host-local
	trigSet bool

	enqueued, shedN, deadlineMissed, decisions, triggers atomic.Int64
	panics, restarts, snapshots, outboxDropped           atomic.Int64

	exit chan struct{} // closed when the worker returns
}

// appliedOut is what the entry in flight produced: the decision for
// the shed debt in front of it (if any), then the entry's own.
type appliedOut struct {
	shed    cascade.Decision
	hasShed bool
	main    cascade.Decision
}

func newSession(id int, p Pipeline, cfg Config) *Session {
	s := &Session{
		ID:   id,
		cfg:  cfg,
		p:    p,
		q:    newRing(cfg.QueueLen),
		out:  make([]cascade.Decision, 0, cfg.OutboxLen),
		brk:  newBreaker(cfg.BreakerWindow),
		exit: make(chan struct{}),
	}
	if cfg.Now == nil {
		s.epoch = time.Now()
	} else {
		s.epoch = cfg.Now()
	}
	s.wake = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	if cfg.SnapshotEvery > 0 {
		s.replayLog = make([]entry, 0, cfg.SnapshotEvery)
	}
	go s.run()
	return s
}

// Push enqueues one sample and wakes the worker. It never blocks: a
// full ring sheds its oldest entry (accounted as missing samples on
// the next drain).
// It returns false — and counts the sample as shed — once the session
// is closed or shed.
func (s *Session) Push(acc, gyro imu.Vec3) bool {
	e := entry{acc: acc, gyro: gyro}
	return s.enqueue(&e, 1)
}

// PushMissing enqueues a run of n samples the stream failed to
// deliver, with the same non-blocking contract as Push.
func (s *Session) PushMissing(n int) bool {
	if n <= 0 {
		return true
	}
	e := entry{missing: n}
	return s.enqueue(&e, n)
}

func (s *Session) enqueue(e *entry, raw int) bool {
	s.mu.Lock()
	if s.closing || s.done {
		s.mu.Unlock()
		s.shedN.Add(int64(raw))
		return false
	}
	e.deadline = s.now() + int64(s.cfg.Deadline)
	shed := s.q.push(e)
	s.enqueued.Add(int64(raw))
	if shed > 0 {
		s.shedN.Add(int64(shed))
	}
	if !s.busy {
		// A claimed ring needs no wake: its runner drains until the
		// ring is empty before it lets go.
		s.wake.Signal()
	}
	s.mu.Unlock()
	return true
}

// run is the worker loop: drain the ring whenever it holds unclaimed
// work, exit once closed and drained, or shed.
func (s *Session) run() {
	defer close(s.exit)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.done:
			return
		case s.q.n > 0 && !s.busy:
			s.drain()
		case s.closing && !s.busy: // backlog drained
			s.done = true
			s.idle.Broadcast()
			return
		default:
			s.wake.Wait()
		}
	}
}

// drain claims the session and applies the ring's entries under the
// crash barrier until the ring is empty, then releases the claim. It
// runs on the worker or on a Quiesce caller; the caller holds mu and
// has seen queued work and no claim. mu is released around each entry
// and held again on return. Each entry is timed from one clock read
// before it is applied, unless the previous entry's commit read the
// clock, which then serves as this entry's start.
func (s *Session) drain() {
	s.busy = true
	var start int64
	timed := false // start holds the previous commit's reading
	for s.q.n > 0 {
		s.q.pop(&s.cur)
		s.mu.Unlock()
		if !timed {
			start = s.now()
		}
		var ok bool
		start, timed, ok = s.applyEntry(&s.cur, start)
		s.mu.Lock()
		if !ok {
			// Restarts exhausted: shed the session, dropping the
			// failed entry and the backlog. Their shed debt was
			// counted when ring.push shed it.
			s.setState(StateShed)
			s.closing = true
			s.done = true
			dropped := s.cur.own()
			for s.q.n > 0 {
				s.q.pop(&s.cur)
				dropped += s.cur.own()
			}
			s.shedN.Add(int64(dropped))
			break
		}
	}
	s.busy = false
	s.idle.Broadcast()
	if s.closing {
		s.wake.Signal() // the worker exits once the claim is gone
	}
}

// applyEntry applies e, the entry in flight, with panic isolation,
// timing it from start. On panic it runs the restart protocol; ok false means
// the session must be shed. When the entry decided, the commit read
// the clock: it returns that reading as now, with timed true.
func (s *Session) applyEntry(e *entry, start int64) (now int64, timed, ok bool) {
	err := s.applyOnce(e, s.pos.Load())
	restarted := false
	if err != nil {
		s.panics.Add(1)
		s.setState(StateFaulted)
		s.logf("session %d: pipeline panic at sample %d: %v", s.ID, s.pos.Load(), err)
		if err = s.restartWithBackoff(e); err != nil {
			s.logf("session %d: shedding after %d failed restarts: %v",
				s.ID, s.cfg.MaxRestarts, err)
			return 0, false, false
		}
		restarted = true
	}
	now, timed = s.commit(e, start)
	if restarted && s.cfg.SnapshotEvery > 0 {
		// Re-anchor immediately so the fault window is never replayed
		// twice and the next crash restores past it.
		s.takeSnapshot()
	}
	return now, timed, true
}

// applyOnce drives the pipeline for one entry under a recover barrier,
// leaving its decisions in s.res; a panic comes back as a
// *guard.PanicError with the stack.
func (s *Session) applyOnce(e *entry, pos uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if h := s.cfg.PushHook; h != nil {
		h(s.ID, pos)
	}
	out := &s.res
	out.hasShed = e.shedBefore > 0
	if out.hasShed {
		out.shed = s.p.PushMissing(e.shedBefore)
	}
	if e.missing > 0 {
		out.main = s.p.PushMissing(e.missing)
	} else {
		out.main = s.p.Push(e.acc, e.gyro)
	}
	return nil
}

// restartMaxDelay caps the exponential backoff between restart
// attempts (guard.Config.MaxDelay).
const restartMaxDelay = 50 * time.Millisecond

// restartWithBackoff runs the restore-and-replay protocol under
// guard.Run: up to MaxRestarts attempts with exponential backoff,
// each attempt restoring the last snapshot and replaying the log.
// Replay panics (a fault that reproduces deterministically) consume
// attempts and eventually surface as a *guard.ExhaustedError.
func (s *Session) restartWithBackoff(e *entry) error {
	gcfg := guard.Config{
		Attempts:  s.cfg.MaxRestarts,
		BaseDelay: s.cfg.RestartBackoff,
		MaxDelay:  restartMaxDelay,
		Log:       s.cfg.Log,
	}
	return guard.Run(gcfg, fmt.Sprintf("session-%d-restart", s.ID), func() error {
		s.restarts.Add(1)
		return s.restoreReplay(e)
	})
}

// restoreReplay rebuilds the pipeline to the exact state it had
// before the faulting entry: restore the last snapshot (or reset,
// when none exists yet), replay every logged entry at the tier
// ceiling it first ran at, with emission suppressed — consumers
// already saw those decisions — and finally re-apply the faulting
// entry for real at the breaker's current ceiling. The replay fires
// PushHook at the historical positions, so a deterministic fault
// re-fires and consumes restart attempts instead of looping forever.
func (s *Session) restoreReplay(cur *entry) error {
	if s.snapImg != nil {
		if err := s.p.RestoreFresh(bytes.NewReader(s.snapImg)); err != nil {
			return fmt.Errorf("session %d: snapshot restore: %w", s.ID, err)
		}
	} else {
		// No snapshot yet: the replay log (when snapshots are
		// enabled) still covers the whole history, so a reset plus
		// replay reconstructs the state; with snapshots disabled the
		// pipeline restarts cold and re-warms.
		s.p.Reset()
	}
	pos := s.snapPos
	for i := range s.replayLog {
		le := &s.replayLog[i]
		if h := s.cfg.PushHook; h != nil {
			h(s.ID, pos)
		}
		s.p.SetTierCeiling(le.ceiling)
		if le.shedBefore > 0 {
			s.p.PushMissing(le.shedBefore)
		}
		if le.missing > 0 {
			s.p.PushMissing(le.missing)
		} else {
			s.p.Push(le.acc, le.gyro)
		}
		pos += uint64(le.raw())
	}
	s.p.SetTierCeiling(breakerCeiling(s.brk.level))
	return s.applyOnce(cur, s.pos.Load())
}

// commit publishes the outcome of the fully-applied entry e, left in
// s.res: advance the stream position, log for replay, emit decisions,
// account the deadline, feed the breaker, refresh health, snapshot at
// cadence. It reads the clock only when the entry decided, since the
// deadline check and the breaker are the only readers, and reports
// that reading with timed true.
func (s *Session) commit(e *entry, start int64) (now int64, timed bool) {
	out := &s.res
	raw := e.raw()
	s.pos.Add(uint64(raw))
	if s.cfg.SnapshotEvery > 0 {
		e.ceiling = breakerCeiling(s.brk.level)
		s.replayLog = append(s.replayLog, *e)
		s.sinceSnap += raw
	}
	timed = out.main.Evaluated || (out.hasShed && out.shed.Evaluated)
	if timed {
		now = s.now()
	}
	if out.hasShed {
		s.emit(&out.shed)
	}
	s.emit(&out.main)
	if timed {
		if now > e.deadline {
			s.deadlineMissed.Add(1)
		}
		lvl, changed := s.brk.observe(time.Duration(now-start), s.cfg.Deadline, s.cfg.BreakerTrip)
		if changed {
			s.level.Store(int32(lvl))
			s.p.SetTierCeiling(breakerCeiling(lvl))
			s.logf("session %d: breaker level %d (tier ceiling %v)",
				s.ID, lvl, breakerCeiling(lvl))
		}
	}
	st := StateHealthy
	if s.level.Load() > 0 || out.main.Health != edge.HealthHealthy {
		st = StateDegraded
	}
	s.setState(st)
	if s.cfg.SnapshotEvery > 0 && s.sinceSnap >= s.cfg.SnapshotEvery {
		s.takeSnapshot()
	}
	return now, timed
}

// emit appends an evaluated decision to the outbox (aging out the
// oldest when full) and latches the first trigger, which is never
// dropped: an airbag fire command must survive a slow consumer.
func (s *Session) emit(d *cascade.Decision) {
	if !d.Evaluated {
		return
	}
	s.decisions.Add(1)
	if d.Triggered {
		s.triggers.Add(1)
	}
	s.outMu.Lock()
	if d.Triggered && !s.trigSet {
		s.trig, s.trigSet = *d, true
	}
	if len(s.out) == cap(s.out) {
		copy(s.out, s.out[1:])
		s.out = s.out[:len(s.out)-1]
		s.outboxDropped.Add(1)
	}
	s.out = append(s.out, *d)
	s.outMu.Unlock()
}

func (s *Session) takeSnapshot() {
	// Two buffers ping-pong: the pipeline serialises into the retired
	// one while the last good image stays intact in case it fails
	// mid-way, then the roles swap. Steady state allocates nothing —
	// this was the last per-checkpoint allocation on the push path.
	img, err := s.p.AppendSnapshot(s.snapSpare[:0])
	if err != nil {
		// Keep the previous snapshot and the (growing) log; the next
		// cadence point retries.
		s.logf("session %d: snapshot failed: %v", s.ID, err)
		return
	}
	s.snapImg, s.snapSpare = img, s.snapImg
	s.snapPos = s.pos.Load()
	s.replayLog = s.replayLog[:0]
	s.sinceSnap = 0
	s.snapshots.Add(1)
}

// setState updates the published state; StateShed is terminal. It
// stores only on a change, so a steady session does not write the
// shared word every sample.
func (s *Session) setState(st State) {
	if cur := State(s.state.Load()); cur == st || cur == StateShed {
		return
	}
	s.state.Store(int32(st))
}

// now reads the session clock: nanoseconds since epoch, from one
// monotonic read when Config.Now is nil, else from Config.Now.
func (s *Session) now() int64 {
	if s.cfg.Now == nil {
		return int64(time.Since(s.epoch))
	}
	return int64(s.cfg.Now().Sub(s.epoch))
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// State reports the session's supervised health.
func (s *Session) State() State { return State(s.state.Load()) }

// BreakerLevel reports the latency breaker's current level
// (0 = unconstrained, 1 = accel-CNN ceiling, 2 = threshold floor).
func (s *Session) BreakerLevel() int { return int(s.level.Load()) }

// Pos reports the raw stream position: samples fully applied,
// missing and shed runs included.
func (s *Session) Pos() uint64 { return s.pos.Load() }

// Counters snapshots the session's accounting. Safe from any
// goroutine, including while the ring is being drained.
func (s *Session) Counters() Counters {
	return Counters{
		Enqueued:       s.enqueued.Load(),
		Shed:           s.shedN.Load(),
		DeadlineMissed: s.deadlineMissed.Load(),
		Decisions:      s.decisions.Load(),
		Triggers:       s.triggers.Load(),
		Panics:         s.panics.Load(),
		Restarts:       s.restarts.Load(),
		Snapshots:      s.snapshots.Load(),
		OutboxDropped:  s.outboxDropped.Load(),
	}
}

// DrainDecisions appends the outbox to dst (oldest first) and clears
// it.
func (s *Session) DrainDecisions(dst []cascade.Decision) []cascade.Decision {
	s.outMu.Lock()
	dst = append(dst, s.out...)
	s.out = s.out[:0]
	s.outMu.Unlock()
	return dst
}

// TakeTrigger returns and clears the latched trigger decision.
func (s *Session) TakeTrigger() (cascade.Decision, bool) {
	s.outMu.Lock()
	d, ok := s.trig, s.trigSet
	s.trig, s.trigSet = cascade.Decision{}, false
	s.outMu.Unlock()
	return d, ok
}

// Quiesce blocks until the session is idle: ingress drained and no
// goroutine mid-entry (or the session done). It does not stop the
// session. When it finds queued work that no goroutine has claimed,
// it drains the ring on the calling goroutine, with the same crash
// barrier, restore and shed path as the worker, so a lock-step client
// is served without a goroutine switch.
func (s *Session) Quiesce() {
	s.mu.Lock()
	for !s.done && (s.q.n > 0 || s.busy) {
		if s.busy {
			s.idle.Wait()
		} else {
			s.drain()
		}
	}
	s.mu.Unlock()
}

// Close stops the session after draining its backlog and waits for
// the worker to exit. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	s.closing = true
	s.wake.Signal()
	s.mu.Unlock()
	<-s.exit
}
