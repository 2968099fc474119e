package serve

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/edge"
	"repro/internal/imu"
	"repro/internal/model"
)

// FuzzServeSession is the model-based oracle of the serving runtime
// (DESIGN §11). The fuzz input decodes to a session configuration and
// a program of operations, which runs against a real Runtime session
// and against serveModel: a plain cascade driven on the test goroutine
// plus a ring, outbox and counter model written here. The program's
// operations:
//
//   - push: 1–8 data samples (quiet wear or a fall);
//   - missing: PushMissing(n), n in 1–5;
//   - burst: one sample the runner is held inside (a gate in the
//     PushHook, as the chaos soak's gatePipe) while more entries than
//     the ring holds are pushed and the virtual clock advances, so the
//     shed-oldest folding and its counts are deterministic;
//   - panic: a one-shot panic at the next entry's stream position;
//   - crash: a panic on every entry from the next one on, which
//     exhausts MaxRestarts and sheds the session;
//   - corrupt: one flipped byte in the session's in-memory snapshot,
//     so the next restore fails its digest check and the restart
//     sheds the session (unless a fresh snapshot replaces it first);
//   - quiesce, drain (DrainDecisions and TakeTrigger), close, and
//     virtual-clock advances.
//
// Outside a burst the producer never outruns the ring: before a push
// that could overflow it, the harness quiesces. So every shed comes
// from a burst and the model can apply each entry as it is accepted.
// Invariants, checked at every quiesced point and at the end:
//
//   - counters, Pos, state and the latched trigger equal the model's;
//   - raw samples are conserved: a live session's Pos equals its
//     Enqueued, and a shed session's Enqueued is Pos plus the samples
//     it dropped unapplied;
//   - every evaluated decision reaches the outbox exactly once and in
//     order, and the drained stream equals the reference's, across
//     panics and restores; a corrupt snapshot sheds the session and
//     never yields a wrong decision;
//   - shed is terminal: once shed, the state never changes and every
//     later push is refused and counted;
//   - the pipeline is never entered by two goroutines at once;
//   - the leak check is clean after Close.
//
// The latency breaker is disabled (BreakerTrip at MaxFloat64, as
// servebench does): its tier ceilings are not part of a snapshot's
// replay, and its arithmetic has its own tests. Its bookkeeping still
// runs on every decision.
func FuzzServeSession(f *testing.F) {
	// Op bytes: 0 push, 9 corrupt, 10 missing, 14 burst, 18 panic,
	// 20 crash, 21 quiesce, 24 drain, 27 close, 28 advance (opTable).
	f.Add([]byte{})
	f.Add([]byte{2, 4, 1, 0, 0, 7, 10, 3, 0, 7, 21, 0, 24, 0, 28, 50, 0, 7, 24, 0})
	// Bursts past a 3-deep ring, clock advances past the deadline
	// during the hold, and a two-slot outbox that ages decisions out.
	f.Add([]byte{2, 0, 2, 3, 0, 0x47, 14, 0x93, 10, 2, 24, 0, 14, 0x37, 21, 0, 24, 0})
	// One-shot panics with snapshots every 4 samples: mid-stream, then
	// inside a burst's held entry.
	f.Add([]byte{1, 4, 2, 0, 0, 7, 0, 7, 18, 0, 0, 7, 21, 0, 18, 0, 14, 0x42, 21, 0, 24, 0})
	// Snapshots off: a panic restarts the pipeline cold.
	f.Add([]byte{3, 0, 0, 0x20, 0, 7, 0, 7, 18, 0, 0, 7, 0, 7, 21, 0, 24, 0})
	// A crash loop sheds the session; later pushes are refused.
	f.Add([]byte{4, 2, 2, 0x21, 0, 7, 20, 0, 0, 3, 10, 2, 14, 9, 21, 0, 24, 0})
	// A corrupt snapshot, then a one-shot panic: the restore fails and
	// the session is shed mid-burst.
	f.Add([]byte{1, 4, 0, 0, 0, 7, 0, 7, 9, 0x55, 18, 0, 0, 3, 14, 0x12, 21, 0, 24, 0})
	// Close mid-program, then pushes and a burst on the closed session.
	f.Add([]byte{0, 1, 0, 0, 0, 0x47, 27, 0, 0, 3, 14, 2, 21, 0, 24, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runServeProgram(t, data)
	})
}

// Program opcodes. An op byte picks one through opTable, which makes
// the session-ending ops (crash, close) rare, so random programs run
// long enough to reach the interleavings after bursts and restores.
const (
	opPush = iota
	opMissing
	opBurst
	opPanic
	opCrash
	opCorrupt
	opQuiesce
	opDrain
	opClose
	opAdvance
)

var opTable = [32]int{
	opPush, opPush, opPush, opPush, opPush, opPush, opPush, opPush, opPush, opCorrupt,
	opMissing, opMissing, opMissing, opMissing,
	opBurst, opBurst, opBurst, opBurst,
	opPanic, opPanic,
	opCrash,
	opQuiesce, opQuiesce, opQuiesce,
	opDrain, opDrain, opDrain,
	opClose,
	opAdvance, opAdvance, opAdvance, opAdvance,
}

// bigOutbox outsizes every decision a program can produce: at most
// 256 ops of at most 15 entries, each emitting at most two decisions.
const bigOutbox = 1 << 14

func runServeProgram(t *testing.T, data []byte) {
	if len(data) > 512 {
		data = data[:512]
	}
	rd := byteReader{data: data}
	queueLen := 1 + int(rd.next()%6)
	snapEvery := int(rd.next() % 17)
	maxRestarts := 1 + int(rd.next()%3)
	mode := rd.next()
	outboxLen := bigOutbox
	smallOutbox := mode&1 != 0
	if smallOutbox {
		outboxLen = 1 + int(mode>>1)%8
	}
	deadline := time.Duration(10+int(mode>>4)*10) * time.Millisecond

	leak := StartLeakCheck()
	clk := NewVirtualClock()
	var (
		hold       atomic.Bool  // the next hook call rendezvous with the test
		oneShot    atomic.Int64 // stream position of the armed one-shot panic, or -1
		faultFrom  atomic.Int64 // first position of the crash loop, or -1
		arrived    = make(chan struct{})
		release    = make(chan struct{})
		oneShotHit atomic.Bool
	)
	oneShot.Store(-1)
	faultFrom.Store(-1)
	rt := New(Config{
		QueueLen:       queueLen,
		OutboxLen:      outboxLen,
		SnapshotEvery:  snapEvery,
		MaxRestarts:    maxRestarts,
		RestartBackoff: time.Microsecond,
		Deadline:       deadline,
		BreakerTrip:    math.MaxFloat64,
		Now:            clk.Now,
		PushHook: func(_ int, pos uint64) {
			if hold.CompareAndSwap(true, false) {
				arrived <- struct{}{}
				<-release
			}
			if ff := faultFrom.Load(); ff >= 0 && pos >= uint64(ff) {
				panic("fuzz: crash loop")
			}
			if int64(pos) == oneShot.Load() && oneShotHit.CompareAndSwap(false, true) {
				panic("fuzz: one-shot fault")
			}
		},
	})
	ex := &exclusivePipe{Pipeline: newFuzzCascade(t)}
	s := rt.Open(ex)
	m := newServeModel(t, newFuzzCascade(t), clk, rt.Config(), outboxLen)

	var got []cascade.Decision // every decision drained from the session
	pending := 0               // entries pushed since the last quiesce: a bound on the ring
	gen := 0                   // sample generator position
	wasShed := false

	quiesce := func() {
		s.Quiesce()
		pending = 0
		m.check(s, "quiesce")
		if wasShed && s.State() != StateShed {
			t.Fatalf("shed is terminal, but the state is %v", s.State())
		}
		wasShed = s.State() == StateShed
	}
	push := func(e mEntry, fall bool) {
		if pending == queueLen {
			quiesce()
		}
		var ok bool
		if e.missing > 0 {
			ok = s.PushMissing(e.missing)
		} else {
			e.acc, e.gyro = fuzzSample(gen, fall)
			gen++
			ok = s.Push(e.acc, e.gyro)
		}
		if want := m.accept(&e); ok != want {
			t.Fatalf("push accepted=%v, model %v (closed=%v shed=%v)", ok, want, m.closed, m.shed)
		}
		if ok {
			pending++
			m.apply(e)
			if m.shed {
				// The entry sheds the session: let the runner reach
				// it before the next push, which must be refused.
				quiesce()
			}
		}
	}

	for rd.more() {
		op, arg := opTable[rd.next()%32], rd.next()
		switch op {
		case opPush:
			for k := 0; k <= int(arg%8); k++ {
				push(mEntry{}, arg&0x40 != 0)
			}
		case opMissing:
			push(mEntry{missing: 1 + int(arg%5)}, false)
		case opBurst:
			quiesce()
			if !m.accepting() {
				push(mEntry{}, false) // refused; no runner would reach the gate
				break
			}
			hold.Store(true)
			held := mEntry{}
			held.acc, held.gyro = fuzzSample(gen, false)
			gen++
			if !s.Push(held.acc, held.gyro) || !m.accept(&held) {
				t.Fatal("burst: first push refused on a live session")
			}
			<-arrived // the worker is inside the held entry; the ring is empty
			ring := ringModel{capacity: queueLen}
			n := queueLen + 1 + int(arg%8)
			for j := 0; j < n; j++ {
				e := mEntry{}
				if arg&0x10 != 0 && j%3 == 1 {
					e.missing = 1 + j%4
					if !s.PushMissing(e.missing) {
						t.Fatal("burst: missing run refused on a live session")
					}
				} else {
					e.acc, e.gyro = fuzzSample(gen, arg&0x40 != 0)
					gen++
					if !s.Push(e.acc, e.gyro) {
						t.Fatal("burst: push refused on a live session")
					}
				}
				m.accept(&e)
				m.shedN += int64(ring.push(e))
			}
			clk.Advance(time.Duration(arg>>5) * 25 * time.Millisecond)
			release <- struct{}{}
			m.apply(held)
			for _, e := range ring.q {
				m.apply(e)
			}
			quiesce()
		case opPanic:
			// Quiesced first: an armed position the runner has not yet
			// reached must not be re-armed under it.
			quiesce()
			oneShotHit.Store(false)
			oneShot.Store(int64(m.pos))
			m.oneShot, m.oneShotHit = int64(m.pos), false
		case opCrash:
			quiesce()
			faultFrom.Store(int64(m.pos))
			m.faultFrom = int64(m.pos)
			push(mEntry{}, false)
			quiesce()
		case opCorrupt:
			quiesce()
			// Quiesced, so the last drain's writes to snapImg happen
			// before this one, and this one before the next drain's.
			// Only an intact image is flipped: a second flip of the
			// same byte would restore it behind the model's back.
			if m.accepting() && len(s.snapImg) > 0 && !m.snapCorrupt {
				s.snapImg[int(arg)*len(s.snapImg)/256] ^= 0xa5
				m.snapCorrupt = true
			}
		case opQuiesce:
			quiesce()
		case opDrain:
			if smallOutbox {
				// The outbox ages decisions out as it fills, so what a
				// drain sees is deterministic only at a quiesced point.
				quiesce()
				before := len(got)
				got = s.DrainDecisions(got)
				m.drainCheck(got[before:])
				td, tok := s.TakeTrigger()
				m.takeTriggerCheck(td, tok)
			} else {
				got = s.DrainDecisions(got)
			}
		case opClose:
			s.Close()
			m.closed = true
			pending = 0
			m.check(s, "close")
		case opAdvance:
			quiesce()
			clk.Advance(time.Duration(arg) * time.Millisecond)
		}
	}

	rt.Close()
	m.closed = true
	m.check(s, "end")
	before := len(got)
	got = s.DrainDecisions(got)
	if smallOutbox {
		m.drainCheck(got[before:])
	} else {
		if len(got) != len(m.stream) {
			t.Fatalf("drained %d decisions, reference emitted %d", len(got), len(m.stream))
		}
		for i := range got {
			if got[i] != m.stream[i] {
				t.Fatalf("decision %d differs from the reference:\n ref %+v\n got %+v", i, m.stream[i], got[i])
			}
		}
	}
	td, tok := s.TakeTrigger()
	m.takeTriggerCheck(td, tok)
	if err := ex.err.Load(); err != nil {
		t.Fatal(*err)
	}
	checkLeak(t, leak)
}

// byteReader hands out the fuzz input one byte at a time, then zeros.
type byteReader struct {
	data []byte
	i    int
}

func (r *byteReader) more() bool { return r.i < len(r.data) }

func (r *byteReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

// newFuzzCascade is a cheap real cascade (threshold tiers) with a
// 20-sample window and a decision every 10 samples, so short programs
// still produce decisions.
func newFuzzCascade(t *testing.T) *cascade.Cascade {
	t.Helper()
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 200, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fuzzSample is quiet wear, or the free fall and impact of a fall.
func fuzzSample(i int, fall bool) (imu.Vec3, imu.Vec3) {
	if !fall {
		return serveQuiet(i)
	}
	if i%20 < 14 {
		return imu.Vec3{Z: 0.04}, imu.Vec3{X: 280, Y: 120}
	}
	return imu.Vec3{Z: 5.5}, imu.Vec3{X: 40}
}

// exclusivePipe counts the goroutines inside the pipeline and records
// an error if two are ever inside at once.
type exclusivePipe struct {
	Pipeline
	inFlight atomic.Int32
	err      atomic.Pointer[string]
}

func (p *exclusivePipe) enter() {
	if n := p.inFlight.Add(1); n > 1 {
		msg := fmt.Sprintf("%d goroutines inside one session's pipeline", n)
		p.err.CompareAndSwap(nil, &msg)
	}
}

func (p *exclusivePipe) exit() { p.inFlight.Add(-1) }

func (p *exclusivePipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	p.enter()
	defer p.exit()
	return p.Pipeline.Push(acc, gyro)
}

func (p *exclusivePipe) PushMissing(n int) cascade.Decision {
	p.enter()
	defer p.exit()
	return p.Pipeline.PushMissing(n)
}

func (p *exclusivePipe) AppendSnapshot(dst []byte) ([]byte, error) {
	p.enter()
	defer p.exit()
	return p.Pipeline.AppendSnapshot(dst)
}

func (p *exclusivePipe) RestoreFresh(r io.Reader) error {
	p.enter()
	defer p.exit()
	return p.Pipeline.RestoreFresh(r)
}

func (p *exclusivePipe) Reset() {
	p.enter()
	defer p.exit()
	p.Pipeline.Reset()
}

func (p *exclusivePipe) SetTierCeiling(t cascade.Tier) {
	p.enter()
	defer p.exit()
	p.Pipeline.SetTierCeiling(t)
}

// mEntry is the model's ingress entry.
type mEntry struct {
	acc, gyro  imu.Vec3
	missing    int
	shedBefore int
	deadline   time.Time
}

func (e mEntry) own() int {
	if e.missing > 0 {
		return e.missing
	}
	return 1
}

func (e mEntry) raw() int { return e.shedBefore + e.own() }

// ringModel is shed-oldest ingress as a slice: a full ring drops its
// oldest entry and folds that entry's raw samples, debt included, into
// the new oldest entry's debt (or the pushed entry's, when the ring
// holds one slot). push returns the samples newly shed.
type ringModel struct {
	capacity int
	q        []mEntry
}

func (r *ringModel) push(e mEntry) int {
	shed := 0
	if len(r.q) == r.capacity {
		old := r.q[0]
		r.q = r.q[1:]
		shed = old.own()
		if len(r.q) > 0 {
			r.q[0].shedBefore += old.raw()
		} else {
			e.shedBefore += old.raw()
		}
	}
	r.q = append(r.q, e)
	return shed
}

// serveModel is the single-goroutine reference of one session.
type serveModel struct {
	t      *testing.T
	ref    Pipeline
	clk    *VirtualClock
	cfg    Config
	outCap int

	pos                                  uint64
	enq, shedN, missed, decisions, trigs int64
	panics, restarts, snapshots, dropped int64
	sinceSnap                            int
	lost                                 int64 // accepted samples a shed dropped unapplied
	closed, shed                         bool
	health                               edge.Health

	oneShot     int64
	oneShotHit  bool
	faultFrom   int64
	snapCorrupt bool // the session's snapshot image fails its digest

	out     []cascade.Decision // outbox
	stream  []cascade.Decision // every decision emitted
	trig    cascade.Decision
	trigSet bool
}

func newServeModel(t *testing.T, ref Pipeline, clk *VirtualClock, cfg Config, outCap int) *serveModel {
	return &serveModel{t: t, ref: ref, clk: clk, cfg: cfg, outCap: outCap, oneShot: -1, faultFrom: -1}
}

func (m *serveModel) accepting() bool { return !m.closed && !m.shed }

// accept is the model of enqueue: it stamps the deadline and counts
// the entry as enqueued, or as shed when the session no longer takes
// pushes.
func (m *serveModel) accept(e *mEntry) bool {
	if !m.accepting() {
		m.shedN += int64(e.own())
		return false
	}
	m.enq += int64(e.own())
	e.deadline = m.clk.Now().Add(m.cfg.Deadline)
	return true
}

// apply is the model of one dequeued entry: the crash loop sheds the
// session, a one-shot panic restarts it (cold when snapshots are off,
// invisibly otherwise), then the entry's shed debt and its own samples
// reach the reference, and its decisions are emitted and accounted.
func (m *serveModel) apply(e mEntry) {
	if m.shed { // backlog dropped by the shed
		m.shedN += int64(e.own())
		m.lost += int64(e.raw())
		return
	}
	oneShot := int64(m.pos) == m.oneShot && !m.oneShotHit
	if oneShot {
		m.oneShotHit = true
	}
	if (m.faultFrom >= 0 && m.pos >= uint64(m.faultFrom)) || (oneShot && m.snapCorrupt) {
		// Every restart attempt fails: the fault recurs, or the
		// snapshot it restores from fails its digest.
		m.panics++
		m.restarts += int64(m.cfg.MaxRestarts)
		m.shed = true
		m.shedN += int64(e.own())
		m.lost += int64(e.raw())
		return
	}
	restarted := false
	if oneShot {
		m.panics++
		m.restarts++
		restarted = true
		if m.cfg.SnapshotEvery == 0 {
			m.ref.Reset()
		}
	}
	var shedD cascade.Decision
	if e.shedBefore > 0 {
		shedD = m.ref.PushMissing(e.shedBefore)
	}
	var main cascade.Decision
	if e.missing > 0 {
		main = m.ref.PushMissing(e.missing)
	} else {
		main = m.ref.Push(e.acc, e.gyro)
	}
	m.pos += uint64(e.raw())
	if m.cfg.SnapshotEvery > 0 {
		m.sinceSnap += e.raw()
	}
	if (main.Evaluated || shedD.Evaluated) && m.clk.Now().After(e.deadline) {
		m.missed++
	}
	m.emit(shedD)
	m.emit(main)
	m.health = main.Health
	if m.cfg.SnapshotEvery > 0 && m.sinceSnap >= m.cfg.SnapshotEvery {
		m.snapshot()
	}
	if restarted && m.cfg.SnapshotEvery > 0 {
		m.snapshot()
	}
}

func (m *serveModel) snapshot() {
	m.snapshots++
	m.sinceSnap = 0
	m.snapCorrupt = false
}

func (m *serveModel) emit(d cascade.Decision) {
	if !d.Evaluated {
		return
	}
	m.decisions++
	if d.Triggered {
		m.trigs++
		if !m.trigSet {
			m.trig, m.trigSet = d, true
		}
	}
	m.stream = append(m.stream, d)
	if len(m.out) == m.outCap {
		m.out = m.out[1:]
		m.dropped++
	}
	m.out = append(m.out, d)
}

// check compares the quiesced session with the model.
func (m *serveModel) check(s *Session, at string) {
	m.t.Helper()
	want := Counters{
		Enqueued: m.enq, Shed: m.shedN, DeadlineMissed: m.missed,
		Decisions: m.decisions, Triggers: m.trigs, Panics: m.panics,
		Restarts: m.restarts, Snapshots: m.snapshots, OutboxDropped: m.dropped,
	}
	if c := s.Counters(); c != want {
		m.t.Fatalf("%s: counters\n got %+v\nwant %+v", at, c, want)
	}
	if s.Pos() != m.pos {
		m.t.Fatalf("%s: Pos %d, model %d", at, s.Pos(), m.pos)
	}
	wantState := StateHealthy
	switch {
	case m.shed:
		wantState = StateShed
	case m.health != edge.HealthHealthy:
		wantState = StateDegraded
	}
	if st := s.State(); st != wantState {
		m.t.Fatalf("%s: state %v, model %v", at, st, wantState)
	}
	// Conservation: a live session applied every accepted sample, shed
	// ones as missing runs; a shed one dropped the rest unapplied.
	if s.Pos()+uint64(m.lost) != uint64(m.enq) {
		m.t.Fatalf("%s: Pos %d + %d dropped by the shed, but %d samples enqueued", at, s.Pos(), m.lost, m.enq)
	}
}

// drainCheck compares a quiesced drain with the model's outbox.
func (m *serveModel) drainCheck(got []cascade.Decision) {
	m.t.Helper()
	if len(got) != len(m.out) {
		m.t.Fatalf("drained %d decisions, model outbox holds %d", len(got), len(m.out))
	}
	for i := range got {
		if got[i] != m.out[i] {
			m.t.Fatalf("drained decision %d differs:\n ref %+v\n got %+v", i, m.out[i], got[i])
		}
	}
	m.out = m.out[:0]
}

func (m *serveModel) takeTriggerCheck(d cascade.Decision, ok bool) {
	m.t.Helper()
	if ok != m.trigSet || d != m.trig {
		m.t.Fatalf("latched trigger %+v (%v), model %+v (%v)", d, ok, m.trig, m.trigSet)
	}
	m.trig, m.trigSet = cascade.Decision{}, false
}
