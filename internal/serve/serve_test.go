package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/imu"
)

// fakePipe is a scripted Pipeline: it evaluates a decision on every
// raw sample with Probability = position/1e6, triggers when acc.X is
// at least 10, and snapshots its single piece of state (the raw
// sample count) as decimal bytes. Every call is appended to ops, so
// tests can assert the exact pipeline call sequence the runtime
// produced — including what a restore-and-replay did.
//
// The worker goroutine owns the pipe; tests only read it after
// Quiesce or Close, which order those reads after the worker's
// writes.
type fakePipe struct {
	raw   int
	ops   []string
	ceils []cascade.Tier
	// block, when non-nil, is received from once per Push, letting a
	// test hold the worker mid-entry while the ingress ring fills.
	block chan struct{}
	// delay, when non-nil, runs inside every Push (used to advance a
	// virtual clock, simulating a slow pipeline).
	delay func()
}

func (f *fakePipe) decision() cascade.Decision {
	return cascade.Decision{
		Evaluated:   true,
		Probability: float64(f.raw) / 1e6,
	}
}

func (f *fakePipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	if f.block != nil {
		<-f.block
	}
	if f.delay != nil {
		f.delay()
	}
	f.raw++
	f.ops = append(f.ops, "push")
	d := f.decision()
	if acc.X >= 10 {
		d.Triggered = true
	}
	return d
}

func (f *fakePipe) PushMissing(n int) cascade.Decision {
	f.raw += n
	f.ops = append(f.ops, fmt.Sprintf("miss:%d", n))
	return f.decision()
}

func (f *fakePipe) AppendSnapshot(dst []byte) ([]byte, error) {
	f.ops = append(f.ops, fmt.Sprintf("snap:%d", f.raw))
	return strconv.AppendInt(dst, int64(f.raw), 10), nil
}

func (f *fakePipe) RestoreFresh(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return err
	}
	f.raw = n
	f.ops = append(f.ops, fmt.Sprintf("restore:%d", n))
	return nil
}

func (f *fakePipe) Reset() {
	f.raw = 0
	f.ops = append(f.ops, "reset")
}

func (f *fakePipe) SetTierCeiling(t cascade.Tier) {
	f.ceils = append(f.ceils, t)
	f.ops = append(f.ops, fmt.Sprintf("ceil:%d", int(t)))
}

// sample returns a distinct quiet data sample for position i.
func sample(i int) (imu.Vec3, imu.Vec3) {
	return imu.Vec3{X: float64(i%7) * 0.01, Z: 1}, imu.Vec3{Y: float64(i % 5)}
}

func checkLeak(t *testing.T, l Leak) {
	t.Helper()
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionFlowAndCounters(t *testing.T) {
	leak := StartLeakCheck()
	// The queue outsizes the burst so a slow worker never sheds and
	// the decision count is exact.
	rt := New(Config{QueueLen: 128})
	f := &fakePipe{}
	s := rt.Open(f)
	const n = 100
	for i := 0; i < n; i++ {
		acc, gyro := sample(i)
		if !s.Push(acc, gyro) {
			t.Fatalf("push %d rejected on a healthy session", i)
		}
	}
	rt.Quiesce()
	var ds []cascade.Decision
	ds = s.DrainDecisions(ds)
	// Outbox keeps the newest OutboxLen decisions; all n were counted.
	if len(ds) != rt.Config().OutboxLen {
		t.Fatalf("drained %d decisions, want outbox cap %d", len(ds), rt.Config().OutboxLen)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].Probability <= ds[i-1].Probability {
			t.Fatalf("decisions out of order at %d: %v then %v", i, ds[i-1].Probability, ds[i].Probability)
		}
	}
	c := s.Counters()
	if c.Enqueued != n || c.Decisions != n || c.Shed != 0 || c.Panics != 0 {
		t.Fatalf("counters %+v, want %d enqueued/decisions, 0 shed/panics", c, n)
	}
	if c.OutboxDropped != n-int64(rt.Config().OutboxLen) {
		t.Fatalf("OutboxDropped = %d, want %d", c.OutboxDropped, n-rt.Config().OutboxLen)
	}
	if got := s.State(); got != StateHealthy {
		t.Fatalf("state %v, want healthy", got)
	}
	if counts := rt.StateCounts(); counts[StateHealthy] != 1 {
		t.Fatalf("state counts %v, want one healthy", counts)
	}
	rt.Close()
	checkLeak(t, leak)
}

func TestTriggerLatched(t *testing.T) {
	leak := StartLeakCheck()
	rt := New(Config{QueueLen: 64, OutboxLen: 4})
	f := &fakePipe{}
	s := rt.Open(f)
	for i := 0; i < 10; i++ {
		acc, gyro := sample(i)
		if i == 3 {
			acc.X = 11 // trigger
		}
		s.Push(acc, gyro)
	}
	rt.Quiesce()
	// The trigger aged out of the 4-deep outbox but must be latched.
	d, ok := s.TakeTrigger()
	if !ok || !d.Triggered {
		t.Fatalf("trigger not latched: %+v ok=%v", d, ok)
	}
	if _, again := s.TakeTrigger(); again {
		t.Fatal("TakeTrigger did not clear the latch")
	}
	if c := s.Counters(); c.Triggers != 1 {
		t.Fatalf("Triggers = %d, want 1", c.Triggers)
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestShedOldestBecomesMissing holds the worker inside its first Push
// while the tiny ingress ring overflows, then verifies the shed
// samples reached the pipeline as one missing run — stream alignment
// degraded, never silently skewed — and were counted.
func TestShedOldestBecomesMissing(t *testing.T) {
	leak := StartLeakCheck()
	gate := make(chan struct{})
	f := &fakePipe{block: gate}
	rt := New(Config{QueueLen: 4})
	s := rt.Open(f)

	acc, gyro := sample(0)
	s.Push(acc, gyro) // worker dequeues this and blocks inside Push
	for i := 1; i <= 9; i++ {
		acc, gyro := sample(i)
		s.Push(acc, gyro)
	}
	// Ring saw up to 9 entries with capacity 4: at least 4 raw
	// samples shed (the exact count depends on when the worker
	// grabbed the first entry). Closing the gate releases the blocked
	// Push and makes every later receive return immediately.
	close(gate)
	rt.Quiesce()

	c := s.Counters()
	if c.Shed < 4 {
		t.Fatalf("Shed = %d, want >= 4 after overflowing a 4-deep ring with 9 pushes", c.Shed)
	}
	if c.Enqueued != 10 {
		t.Fatalf("Enqueued = %d, want 10", c.Enqueued)
	}
	// Conservation: every raw sample either reached the pipe as data
	// or as missing.
	if int64(f.raw) != c.Enqueued {
		t.Fatalf("pipeline saw %d raw samples, enqueued %d — samples lost without accounting", f.raw, c.Enqueued)
	}
	joined := strings.Join(f.ops, ",")
	if !strings.Contains(joined, "miss:") {
		t.Fatalf("no missing run reached the pipeline; ops: %s", joined)
	}
	rt.Close()
	checkLeak(t, leak)
}

func TestMissingRunsForwarded(t *testing.T) {
	leak := StartLeakCheck()
	rt := New(Config{QueueLen: 64})
	f := &fakePipe{}
	s := rt.Open(f)
	acc, gyro := sample(0)
	s.Push(acc, gyro)
	s.PushMissing(5)
	s.Push(acc, gyro)
	rt.Quiesce()
	joined := strings.Join(f.ops, ",")
	if want := "push,miss:5,push"; joined != want {
		t.Fatalf("ops %q, want %q", joined, want)
	}
	if c := s.Counters(); c.Enqueued != 7 {
		t.Fatalf("Enqueued = %d, want 7", c.Enqueued)
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestPanicRestartReplayIdentical is the crash-isolation contract: a
// one-shot panic injected mid-stream must leave the visible decision
// sequence bit-identical to a run that never crashed, with the
// recovery visible only in the counters.
func TestPanicRestartReplayIdentical(t *testing.T) {
	run := func(panicAt int) (ds []cascade.Decision, c Counters, ops []string) {
		fired := false
		rt := New(Config{QueueLen: 128, OutboxLen: 256, SnapshotEvery: 16,
			PushHook: func(session int, pos uint64) {
				if panicAt >= 0 && !fired && pos == uint64(panicAt) {
					fired = true
					panic("injected fault")
				}
			}})
		f := &fakePipe{}
		s := rt.Open(f)
		for i := 0; i < 100; i++ {
			acc, gyro := sample(i)
			s.Push(acc, gyro)
		}
		rt.Quiesce()
		ds = s.DrainDecisions(nil)
		c = s.Counters()
		ops = f.ops
		rt.Close()
		return ds, c, ops
	}

	leak := StartLeakCheck()
	ref, refC, _ := run(-1)
	got, c, ops := run(37)
	if len(got) != len(ref) {
		t.Fatalf("decision count %d after recovery, reference %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("decision %d diverged after recovery:\n ref %+v\n got %+v", i, ref[i], got[i])
		}
	}
	if c.Panics != 1 || c.Restarts != 1 {
		t.Fatalf("Panics/Restarts = %d/%d, want 1/1", c.Panics, c.Restarts)
	}
	if c.Decisions != refC.Decisions {
		t.Fatalf("Decisions = %d, reference %d", c.Decisions, refC.Decisions)
	}
	// The recovery restored the snapshot at 32 and replayed 32..36.
	joined := strings.Join(ops, ",")
	if !strings.Contains(joined, "restore:32") {
		t.Fatalf("expected restore from the sample-32 snapshot; ops: %s", joined)
	}
	checkLeak(t, leak)
}

// TestPanicBeforeFirstSnapshot: a crash before any snapshot exists is
// recovered by resetting and replaying the full (still complete)
// log — same bit-identical guarantee.
func TestPanicBeforeFirstSnapshot(t *testing.T) {
	leak := StartLeakCheck()
	fired := false
	rt := New(Config{QueueLen: 64, OutboxLen: 64, SnapshotEvery: 64,
		PushHook: func(session int, pos uint64) {
			if !fired && pos == 5 {
				fired = true
				panic("early fault")
			}
		}})
	f := &fakePipe{}
	s := rt.Open(f)
	for i := 0; i < 20; i++ {
		acc, gyro := sample(i)
		s.Push(acc, gyro)
	}
	rt.Quiesce()
	ds := s.DrainDecisions(nil)
	if len(ds) != 20 {
		t.Fatalf("got %d decisions, want 20", len(ds))
	}
	for i, d := range ds {
		if want := float64(i+1) / 1e6; d.Probability != want {
			t.Fatalf("decision %d probability %v, want %v", i, d.Probability, want)
		}
	}
	joined := strings.Join(f.ops, ",")
	if !strings.Contains(joined, "reset") {
		t.Fatalf("expected a reset-based recovery; ops: %s", joined)
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestExhaustedRestartsShed: a deterministic fault (the hook panics at
// the same position on every replay) must consume MaxRestarts and
// shed the session — and only that session — leaving no goroutine.
func TestExhaustedRestartsShed(t *testing.T) {
	leak := StartLeakCheck()
	rt := New(Config{QueueLen: 64, MaxRestarts: 3, SnapshotEvery: 4, RestartBackoff: time.Microsecond,
		PushHook: func(session int, pos uint64) {
			if session == 0 && pos >= 10 {
				panic("persistent fault")
			}
		}})
	sick := rt.Open(&fakePipe{})
	well := rt.Open(&fakePipe{})
	for i := 0; i < 30; i++ {
		acc, gyro := sample(i)
		sick.Push(acc, gyro)
		well.Push(acc, gyro)
	}
	rt.Quiesce()
	if got := sick.State(); got != StateShed {
		t.Fatalf("sick session state %v, want shed", got)
	}
	if got := well.State(); got != StateHealthy {
		t.Fatalf("healthy session state %v, want healthy", got)
	}
	c := sick.Counters()
	if c.Panics != 1 || c.Restarts != 3 {
		t.Fatalf("Panics/Restarts = %d/%d, want 1/3", c.Panics, c.Restarts)
	}
	if c.Shed == 0 {
		t.Fatal("shed session dropped its backlog without counting it")
	}
	acc, gyro := sample(0)
	if sick.Push(acc, gyro) {
		t.Fatal("push accepted on a shed session")
	}
	if wc := well.Counters(); wc.Decisions != 30 {
		t.Fatalf("healthy neighbour produced %d decisions, want 30 — isolation broken", wc.Decisions)
	}
	if counts := rt.StateCounts(); counts[StateShed] != 1 || counts[StateHealthy] != 1 {
		t.Fatalf("state counts %v, want one shed + one healthy", counts)
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestShedSessionCountsEachSampleOnce: when a session is shed, every
// sample it accepted but never applied — the failing entry, the
// backlog, and the debt ring.push already folded forward — is counted
// in Shed exactly once. The hook holds the worker inside the first
// entry while the ring overflows, then fails that entry and every
// replay, so nothing is ever applied: Pos stays 0 and Shed must equal
// Enqueued.
func TestShedSessionCountsEachSampleOnce(t *testing.T) {
	const push = 0 // a sample; n > 0 is PushMissing(n)
	cases := []struct {
		name     string
		queueLen int
		backlog  []int // pushed while the worker is held in the first entry
		enq      int64
	}{
		{"no backlog", 2, nil, 1},
		{"backlog with shed debt", 2, []int{push, push, push, push}, 5},
		{"missing runs", 2, []int{3, push, 2}, 7},
		{"single slot", 1, []int{push, push, push}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leak := StartLeakCheck()
			entered, release := make(chan struct{}), make(chan struct{})
			held := false // only the worker goroutine calls the hook
			rt := New(Config{QueueLen: tc.queueLen, MaxRestarts: 1, RestartBackoff: time.Microsecond,
				PushHook: func(session int, pos uint64) {
					if !held {
						held = true
						close(entered)
						<-release
					}
					panic("persistent fault")
				}})
			s := rt.Open(&fakePipe{})
			acc, gyro := sample(0)
			s.Push(acc, gyro)
			<-entered
			for _, n := range tc.backlog {
				if n == push {
					s.Push(acc, gyro)
				} else {
					s.PushMissing(n)
				}
			}
			close(release)
			rt.Close()
			c := s.Counters()
			if s.State() != StateShed || c.Enqueued != tc.enq || c.Shed != tc.enq || s.Pos() != 0 {
				t.Fatalf("state %v, Enqueued=%d Shed=%d Pos=%d; want shed, Enqueued=Shed=%d Pos=0",
					s.State(), c.Enqueued, c.Shed, s.Pos(), tc.enq)
			}
			checkLeak(t, leak)
		})
	}
}

// TestBreakerDemotesAndRecovers drives decision latency with a
// virtual clock: sustained p99 near the deadline must demote the tier
// ceiling step by step, and recovery must promote back only after the
// hysteresis hold.
func TestBreakerDemotesAndRecovers(t *testing.T) {
	leak := StartLeakCheck()
	clk := NewVirtualClock()
	slow := true
	f := &fakePipe{}
	f.delay = func() {
		if slow {
			clk.Advance(140 * time.Millisecond) // p99 ≥ 0.8 × 150 ms
		} else {
			clk.Advance(time.Millisecond)
		}
	}
	rt := New(Config{
		Now:           clk.Now,
		BreakerWindow: 8,
		Deadline:      150 * time.Millisecond,
	})
	s := rt.Open(f)
	push := func(n int) {
		for i := 0; i < n; i++ {
			acc, gyro := sample(i)
			s.Push(acc, gyro)
			s.Quiesce() // lock-step so delay/slow flips are race-free
		}
	}
	push(8)
	if lvl := s.BreakerLevel(); lvl != 2 {
		t.Fatalf("breaker level %d after sustained 140 ms latency, want 2", lvl)
	}
	if got := s.State(); got != StateDegraded {
		t.Fatalf("state %v under breaker pressure, want degraded", got)
	}
	slow = false
	// 8 pushes age the slow latencies out of the window, then two
	// full holds promote 2 → 1 → 0.
	push(8 + 8 + 8)
	if lvl := s.BreakerLevel(); lvl != 0 {
		t.Fatalf("breaker level %d after recovery, want 0", lvl)
	}
	if got := s.State(); got != StateHealthy {
		t.Fatalf("state %v after recovery, want healthy", got)
	}
	want := []cascade.Tier{cascade.TierFallback, cascade.TierThreshold, cascade.TierFallback, cascade.TierPrimary}
	if len(f.ceils) != len(want) {
		t.Fatalf("ceiling transitions %v, want %v", f.ceils, want)
	}
	for i := range want {
		if f.ceils[i] != want[i] {
			t.Fatalf("ceiling transition %d = %v, want %v (all: %v)", i, f.ceils[i], want[i], f.ceils)
		}
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestDeadlineMissedCounter: decisions that land after the per-sample
// deadline are counted, on-time ones are not.
func TestDeadlineMissedCounter(t *testing.T) {
	leak := StartLeakCheck()
	clk := NewVirtualClock()
	f := &fakePipe{}
	f.delay = func() { clk.Advance(200 * time.Millisecond) }
	rt := New(Config{Now: clk.Now, Deadline: 150 * time.Millisecond})
	s := rt.Open(f)
	for i := 0; i < 10; i++ {
		acc, gyro := sample(i)
		s.Push(acc, gyro)
	}
	rt.Quiesce()
	if c := s.Counters(); c.DeadlineMissed != 10 {
		t.Fatalf("DeadlineMissed = %d, want 10 at 200 ms per decision", c.DeadlineMissed)
	}

	f2 := &fakePipe{}
	f2.delay = func() { clk.Advance(time.Millisecond) }
	s2 := rt.Open(f2)
	for i := 0; i < 10; i++ {
		acc, gyro := sample(i)
		s2.Push(acc, gyro)
	}
	rt.Quiesce()
	if c := s2.Counters(); c.DeadlineMissed != 0 {
		t.Fatalf("DeadlineMissed = %d on a fast session, want 0", c.DeadlineMissed)
	}
	rt.Close()
	checkLeak(t, leak)
}

func TestCloseRejectsAndDrains(t *testing.T) {
	leak := StartLeakCheck()
	rt := New(Config{QueueLen: 64})
	f := &fakePipe{}
	s := rt.Open(f)
	for i := 0; i < 50; i++ {
		acc, gyro := sample(i)
		s.Push(acc, gyro)
	}
	rt.Close()
	// Backlog was drained before the worker exited.
	if f.raw != 50 {
		t.Fatalf("pipeline saw %d samples after Close, want the full 50", f.raw)
	}
	acc, gyro := sample(0)
	if s.Push(acc, gyro) {
		t.Fatal("push accepted after Close")
	}
	if rt.Open(&fakePipe{}) != nil {
		t.Fatal("Open succeeded after Close")
	}
	if rt.Session(0) != s || rt.Session(99) != nil {
		t.Fatal("session lookup broken")
	}
	checkLeak(t, leak)
}

// TestQuiesceCallersExclusive: several goroutines Quiesce in a loop
// while a producer pushes, so the worker and the Quiesce callers all
// compete to drain the ring, through one-shot panics and their
// restores. The pipeline counts the goroutines inside it and fails the
// test if it ever sees two; the hook's map is written only by the
// drain's owner, so -race flags any overlap too. Nothing is lost: the
// stream position reaches every enqueued sample and each one yields
// exactly one decision.
func TestQuiesceCallersExclusive(t *testing.T) {
	leak := StartLeakCheck()
	const n, quiescers = 3000, 4
	fired := map[uint64]bool{}
	rt := New(Config{QueueLen: n, OutboxLen: n, SnapshotEvery: 32, RestartBackoff: time.Microsecond,
		PushHook: func(_ int, pos uint64) {
			if pos%251 == 100 && !fired[pos] {
				fired[pos] = true
				panic("injected fault")
			}
		}})
	ex := &exclusivePipe{Pipeline: &fakePipe{}}
	s := rt.Open(ex)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < quiescers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Quiesce()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		acc, gyro := sample(i)
		if !s.Push(acc, gyro) {
			t.Fatalf("push %d refused", i)
		}
	}
	s.Quiesce()
	close(stop)
	wg.Wait()
	if err := ex.err.Load(); err != nil {
		t.Fatal(*err)
	}
	c := s.Counters()
	if s.Pos() != n || c.Decisions != n || c.Shed != 0 {
		t.Fatalf("Pos=%d Decisions=%d Shed=%d, want %d/%d/0", s.Pos(), c.Decisions, c.Shed, n, n)
	}
	if want := int64((n - 100 + 250) / 251); c.Panics != want || c.Restarts != want { // positions 100, 351, …
		t.Fatalf("Panics/Restarts = %d/%d, want %d each", c.Panics, c.Restarts, want)
	}
	ds := s.DrainDecisions(nil)
	for i, d := range ds {
		if want := float64(i+1) / 1e6; d.Probability != want {
			t.Fatalf("decision %d probability %v, want %v", i, d.Probability, want)
		}
	}
	rt.Close()
	checkLeak(t, leak)
}

// TestPushOnlyProgress: a producer that never calls Quiesce is still
// served. Each round's pushes find the worker parked (the previous
// round waited for it to finish), so only the wake from Push gets the
// stream position to every enqueued sample.
func TestPushOnlyProgress(t *testing.T) {
	leak := StartLeakCheck()
	const rounds, perRound = 5, 100
	rt := New(Config{QueueLen: perRound + 1})
	s := rt.Open(&fakePipe{})
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			acc, gyro := sample(i)
			s.Push(acc, gyro)
		}
		s.PushMissing(3)
		want := uint64((r + 1) * (perRound + 3))
		if got := uint64(s.Counters().Enqueued); got != want {
			t.Fatalf("round %d: Enqueued = %d, want %d", r, got, want)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.Pos() != want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: Pos stuck at %d of %d without a Quiesce: the worker is not draining", r, s.Pos(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rt.Close()
	checkLeak(t, leak)
}
