package serve

import (
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/imu"
)

// stepPipe is a Pipeline whose i-th push advances a virtual clock by
// steps[i].adv and decides when steps[i].decides: it stands for a
// pipeline whose cost and decision cadence vary per sample.
type stepPipe struct {
	clk   *VirtualClock
	steps []step
	i     int
}

type step struct {
	adv     time.Duration
	decides bool
}

func (p *stepPipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	st := p.steps[p.i%len(p.steps)]
	p.i++
	p.clk.Advance(st.adv)
	return cascade.Decision{Evaluated: st.decides}
}

func (p *stepPipe) PushMissing(n int) cascade.Decision { panic("stepPipe: unexpected PushMissing") }

func (p *stepPipe) AppendSnapshot(dst []byte) ([]byte, error) { return dst, nil }

func (p *stepPipe) RestoreFresh(r io.Reader) error { return nil }

func (p *stepPipe) Reset() {}

func (p *stepPipe) SetTierCeiling(t cascade.Tier) {}

// TestClockReadsPerEntry pins the session's clock rule: one read at
// enqueue for the deadline, one before the entry is applied unless
// the previous commit read the clock, and one at commit only when the
// entry decided. A lock-step one-sample packet costs 2 reads, 3 when
// it decides.
func TestClockReadsPerEntry(t *testing.T) {
	clk := NewVirtualClock()
	var reads atomic.Int64
	now := func() time.Time {
		reads.Add(1)
		return clk.Now()
	}
	pipe := &stepPipe{clk: clk, steps: []step{{decides: false}, {decides: true}}}
	rt := New(Config{Now: now})
	defer rt.Close()
	s := rt.Open(pipe)
	for i, want := range []int64{2, 3, 2, 3} {
		before := reads.Load()
		acc, gyro := sample(i)
		s.Push(acc, gyro)
		s.Quiesce()
		if got := reads.Load() - before; got != want {
			t.Fatalf("packet %d (decides %v): %d clock reads, want %d", i, i%2 == 1, got, want)
		}
	}
}

// TestBreakerSeesEachEntrysApplyTime drains several entries in one
// run while the pipeline advances the virtual clock by a different
// amount for each. The breaker window must hold exactly each deciding
// entry's own apply time, timed from the previous commit's reading
// when that entry decided and from a fresh read otherwise, and
// DeadlineMissed must count from each entry's enqueue instant.
func TestBreakerSeesEachEntrysApplyTime(t *testing.T) {
	leak := StartLeakCheck()
	clk := NewVirtualClock()
	ms := time.Millisecond
	pipe := &stepPipe{clk: clk, steps: []step{
		{10 * ms, true},
		{30 * ms, false},
		{70 * ms, true},
		{5 * ms, true},
		{100 * ms, false},
		{20 * ms, true},
	}}
	entered, release := make(chan struct{}), make(chan struct{})
	first := true // only the goroutine holding the claim calls the hook
	var reads atomic.Int64
	rt := New(Config{
		Now: func() time.Time {
			reads.Add(1)
			return clk.Now()
		},
		Deadline:      150 * ms,
		BreakerWindow: 64, // too few decisions to move the level
		PushHook: func(session int, pos uint64) {
			if first {
				first = false
				close(entered)
				<-release
			}
		},
	})
	s := rt.Open(pipe)
	opened := reads.Load()
	push := func() {
		acc, gyro := sample(0)
		s.Push(acc, gyro)
	}
	// Entry 1 is claimed and timed from 0, then held in the hook
	// while entries 2–3 enqueue at 0 and entries 4–6 at 100 ms.
	push()
	<-entered
	push()
	push()
	clk.Advance(100 * ms)
	push()
	push()
	push()
	close(release)
	s.Quiesce()

	// Entry 1: 0 → 110 ms. Entry 2 runs 110 → 140 without deciding,
	// so entry 3 reads its own start: 140 → 210, past its 150 ms
	// deadline. Entry 4: 210 → 215, inside its 250 ms deadline.
	// Entry 6 reads its start after the silent entry 5: 315 → 335,
	// past 250 ms.
	want := []time.Duration{110 * ms, 70 * ms, 5 * ms, 20 * ms}
	got := s.brk.window[:s.brk.n]
	if len(got) != len(want) {
		t.Fatalf("breaker window %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("breaker window %v, want %v", got, want)
		}
	}
	if c := s.Counters(); c.DeadlineMissed != 2 || c.Decisions != 4 {
		t.Fatalf("DeadlineMissed=%d Decisions=%d, want 2 and 4", c.DeadlineMissed, c.Decisions)
	}
	// 6 enqueue reads, entry 1's start, 4 commits, and the starts of
	// entries 3 and 6.
	if got := reads.Load() - opened; got != 13 {
		t.Fatalf("%d clock reads for the drain, want 13", got)
	}
	rt.Close()
	checkLeak(t, leak)
}
