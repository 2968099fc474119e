package serve

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/imu"
	"repro/internal/model"
)

// Integration against the real detector cascade: the serve-level
// restore guarantee from DESIGN §11 — a session killed mid-fall and
// restored from its last snapshot produces the same trigger decision
// with the same lead time as one that never crashed — checked end to
// end, single-session and with concurrent neighbours, under -race in
// CI.

func newServeCascade(t testing.TB) *cascade.Cascade {
	t.Helper()
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// serveQuiet is a gently varying upright sample; serveFall is the
// tail of a backward fall (free fall, then impact), matching the
// cascade package's snapshot fixtures.
func serveQuiet(i int) (imu.Vec3, imu.Vec3) {
	ph := float64(i) * 0.13
	return imu.Vec3{X: 0.05 * math.Sin(ph), Z: 1 + 0.02*math.Cos(ph)},
		imu.Vec3{X: 3 * math.Sin(ph), Y: 2 * math.Cos(ph)}
}

func serveFall(k int) (imu.Vec3, imu.Vec3) {
	if k < 45 {
		return imu.Vec3{Z: 0.04}, imu.Vec3{X: 280, Y: 120}
	}
	return imu.Vec3{Z: 5.5}, imu.Vec3{X: 40}
}

// streamSample is the shared script: quiet wear for quietLen samples,
// then the fall.
func streamSample(i int) (imu.Vec3, imu.Vec3) {
	const quietLen = 300
	if i < quietLen {
		return serveQuiet(i)
	}
	return serveFall(i - quietLen)
}

// referenceRun drives a bare cascade (no serving runtime) over the
// stream and returns every evaluated decision plus the trigger.
func referenceRun(t *testing.T, total int) (ds []cascade.Decision, trig cascade.Decision, trigAt int) {
	t.Helper()
	c := newServeCascade(t)
	trigAt = -1
	for i := 0; i < total; i++ {
		acc, gyro := streamSample(i)
		d := c.Push(acc, gyro)
		if d.Evaluated {
			ds = append(ds, d)
		}
		if d.Triggered && trigAt < 0 {
			trig, trigAt = d, i
		}
	}
	if trigAt < 0 {
		t.Fatal("reference cascade never triggered on the synthetic fall")
	}
	return ds, trig, trigAt
}

// TestServeKillMidFallRestoresSameTrigger kills the session's
// pipeline mid-fall (between the last snapshot and the trigger) and
// asserts the served decision stream — including the trigger sample
// and therefore the airbag's lead time — is bit-identical to the
// uninterrupted reference. Run with a single session and with four
// concurrent sessions (one crashing, three clean) to pin that the
// guarantee holds under scheduling pressure; CI runs this under
// -race.
func TestServeKillMidFallRestoresSameTrigger(t *testing.T) {
	const total = 400
	refDs, refTrig, trigAt := referenceRun(t, total)
	if trigAt <= 310 {
		t.Fatalf("fixture broken: trigger at %d, need > 310 so the kill lands mid-fall", trigAt)
	}

	for _, sessions := range []int{1, 4} {
		leak := StartLeakCheck()
		crashed := sessions / 2 // session 0 when solo, session 2 in the fleet
		fired := false
		rt := New(Config{
			QueueLen:      512,
			OutboxLen:     64,
			SnapshotEvery: 100, // snapshots at 100, 200, 300 — kill at 310 restores the 300 one
			PushHook: func(session int, pos uint64) {
				if session == crashed && pos == 310 && !fired {
					fired = true
					panic("killed mid-fall")
				}
			},
		})
		ss := make([]*Session, sessions)
		for i := range ss {
			ss[i] = rt.Open(newServeCascade(t))
		}
		for i := 0; i < total; i++ {
			acc, gyro := streamSample(i)
			for _, s := range ss {
				s.Push(acc, gyro)
			}
		}
		rt.Quiesce()

		for i, s := range ss {
			ds := s.DrainDecisions(nil)
			if len(ds) != len(refDs) {
				t.Fatalf("sessions=%d: session %d produced %d decisions, reference %d",
					sessions, i, len(ds), len(refDs))
			}
			for j := range refDs {
				if ds[j] != refDs[j] {
					t.Fatalf("sessions=%d: session %d decision %d diverged:\n ref %+v\n got %+v",
						sessions, i, j, refDs[j], ds[j])
				}
			}
			trig, ok := s.TakeTrigger()
			if !ok {
				t.Fatalf("sessions=%d: session %d never triggered", sessions, i)
			}
			if trig != refTrig {
				t.Fatalf("sessions=%d: session %d trigger differs:\n ref %+v\n got %+v",
					sessions, i, refTrig, trig)
			}
			c := s.Counters()
			wantPanics := int64(0)
			if i == crashed {
				wantPanics = 1
			}
			if c.Panics != wantPanics || (i == crashed && c.Restarts != 1) {
				t.Fatalf("sessions=%d: session %d Panics/Restarts = %d/%d, want %d/1-if-crashed",
					sessions, i, c.Panics, c.Restarts, wantPanics)
			}
			if c.Shed != 0 || c.Enqueued != total {
				t.Fatalf("sessions=%d: session %d Shed/Enqueued = %d/%d, want 0/%d",
					sessions, i, c.Shed, c.Enqueued, total)
			}
		}
		if !fired {
			t.Fatalf("sessions=%d: kill hook never fired", sessions)
		}
		rt.Close()
		checkLeak(t, leak)
	}
}

// TestRestoreKeepsBreakerCeiling: the latency breaker demotes the
// tier ceiling after the last snapshot, then the pipeline panics. The
// restore must replay each logged entry at the ceiling it first ran
// at and hand the faulting entry the breaker's current ceiling, so the
// session continues exactly like one that never crashed: same decision
// stream, same ceiling, same pipeline state.
func TestRestoreKeepsBreakerCeiling(t *testing.T) {
	const total = 400
	run := func(crash bool) ([]cascade.Decision, *cascade.Cascade, *Session) {
		clk := NewVirtualClock()
		fired := false
		rt := New(Config{
			QueueLen:      512,
			OutboxLen:     total,
			SnapshotEvery: 256, // one snapshot, at 256, before the breaker moves
			BreakerWindow: 8,
			Deadline:      150 * time.Millisecond,
			Now:           clk.Now,
			PushHook: func(session int, pos uint64) {
				if pos >= 260 {
					clk.Advance(140 * time.Millisecond) // p99 ≥ 0.8 × 150 ms
				}
				if crash && pos == 300 && !fired {
					fired = true
					panic("killed after a breaker demotion")
				}
			},
		})
		c := newServeCascade(t)
		s := rt.Open(c)
		for i := 0; i < total; i++ {
			acc, gyro := streamSample(i)
			s.Push(acc, gyro)
			s.Quiesce() // lock-step: the clock advances in stream order
		}
		ds := s.DrainDecisions(nil)
		rt.Close()
		if crash && !fired {
			t.Fatal("kill hook never fired")
		}
		return ds, c, s
	}

	refDs, refC, refS := run(false)
	gotDs, gotC, gotS := run(true)
	if lvl := refS.BreakerLevel(); lvl != 2 {
		t.Fatalf("fixture broken: reference breaker level %d, want 2", lvl)
	}
	if c := gotS.Counters(); c.Panics != 1 || c.Restarts != 1 || c.Snapshots != refS.Counters().Snapshots+1 {
		t.Fatalf("Panics/Restarts/Snapshots = %d/%d/%d, want 1/1/%d",
			c.Panics, c.Restarts, c.Snapshots, refS.Counters().Snapshots+1)
	}
	if gotS.BreakerLevel() != refS.BreakerLevel() {
		t.Fatalf("breaker level %d after restore, reference %d", gotS.BreakerLevel(), refS.BreakerLevel())
	}
	if got, want := gotC.TierCeiling(), refC.TierCeiling(); got != want || want != cascade.TierThreshold {
		t.Fatalf("tier ceiling %v after restore at breaker level %d, reference %v (want %v)",
			got, gotS.BreakerLevel(), want, cascade.TierThreshold)
	}
	if len(gotDs) != len(refDs) {
		t.Fatalf("%d decisions after restore, reference %d", len(gotDs), len(refDs))
	}
	for i := range refDs {
		if gotDs[i] != refDs[i] {
			t.Fatalf("decision %d diverged after restore:\n ref %+v\n got %+v", i, refDs[i], gotDs[i])
		}
	}
	a, err := refC.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gotC.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("restored cascade state differs from the reference")
	}
}

// BenchmarkSessionPush is the serving-path overhead benchmark: one
// sample through ingress, worker, cascade and outbox. SnapshotEvery=0
// isolates the steady-state path, which must stay allocation-free.
func BenchmarkSessionPush(b *testing.B) {
	rt := New(Config{QueueLen: 1024})
	s := rt.Open(newServeCascade(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, gyro := serveQuiet(i)
		s.Push(acc, gyro)
		if i%512 == 0 {
			s.Quiesce() // keep the ring from capping the measurement
		}
	}
	s.Quiesce()
	b.StopTimer()
	rt.Close()
}

// BenchmarkSessionPushSnapshot includes the periodic snapshot and
// replay-log cost at the default cadence.
func BenchmarkSessionPushSnapshot(b *testing.B) {
	rt := New(Config{QueueLen: 1024, SnapshotEvery: 256})
	s := rt.Open(newServeCascade(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, gyro := serveQuiet(i)
		s.Push(acc, gyro)
		if i%512 == 0 {
			s.Quiesce()
		}
	}
	s.Quiesce()
	b.StopTimer()
	rt.Close()
}

// newServeCNNCascade is the deployment shape: real three-branch CNN
// primary and accel-only CNN fallback, both carrying incremental
// scoring caches. Seeded weights make repeated calls bit-identical.
func newServeCNNCascade(t testing.TB) *cascade.Cascade {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	primary, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.New(model.KindCNNAccel, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cascade.NewOf[float64](primary, fallback, cascade.Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeKillMidMotionCNNStreams is the serve-level crash-replay
// guarantee for the incremental inference engine: a session whose
// pipeline answers from nn.StreamerOf caches is killed mid-motion
// (between a snapshot and the next stride), restored from the last
// snapshot and replayed — the served decision stream must be
// bit-identical to a bare cascade that never crashed. The streaming
// caches are rebuilt from the restored ring, so any cache/ring drift
// surfaces as a probability divergence here.
func TestServeKillMidMotionCNNStreams(t *testing.T) {
	const total = 400
	ref := newServeCNNCascade(t)
	var refDs []cascade.Decision
	for i := 0; i < total; i++ {
		acc, gyro := streamSample(i)
		d := ref.Push(acc, gyro)
		if d.Evaluated {
			refDs = append(refDs, d)
		}
	}
	if len(refDs) == 0 {
		t.Fatal("fixture broken: reference produced no evaluated decisions")
	}

	leak := StartLeakCheck()
	fired := false
	rt := New(Config{
		QueueLen:      512,
		OutboxLen:     64,
		SnapshotEvery: 100,
		PushHook: func(session int, pos uint64) {
			if pos == 310 && !fired {
				fired = true
				panic("killed mid-motion")
			}
		},
	})
	s := rt.Open(newServeCNNCascade(t))
	for i := 0; i < total; i++ {
		acc, gyro := streamSample(i)
		s.Push(acc, gyro)
	}
	rt.Quiesce()
	ds := s.DrainDecisions(nil)
	if len(ds) != len(refDs) {
		t.Fatalf("session produced %d decisions, reference %d", len(ds), len(refDs))
	}
	for j := range refDs {
		if ds[j] != refDs[j] {
			t.Fatalf("decision %d diverged:\n ref %+v\n got %+v", j, refDs[j], ds[j])
		}
	}
	if !fired {
		t.Fatal("kill hook never fired")
	}
	if c := s.Counters(); c.Panics != 1 || c.Restarts != 1 {
		t.Fatalf("Panics/Restarts = %d/%d, want 1/1", c.Panics, c.Restarts)
	}
	rt.Close()
	checkLeak(t, leak)
}
