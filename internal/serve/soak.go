package serve

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cascade"
	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// Chaos soak — the serving runtime's acceptance harness. It drives N
// concurrent synthetic IMU streams, each with a fall mid-stream,
// through one Runtime while injecting the failure modes the runtime
// exists to absorb:
//
//   - panic     a one-shot pipeline panic in the middle of the fall;
//     the session must recover by snapshot restore + replay with a
//     decision stream bit-identical to an uninterrupted reference.
//   - burst     the producer outruns the consumer past the ingress
//     ring; shed-oldest must convert overload to missing samples with
//     exact accounting and no alignment skew.
//   - stall     the pipeline takes 200 virtual ms per sample; the
//     latency breaker must demote the tier ceiling to the floor and
//     every decision counts a missed deadline.
//   - jitter    bursty delivery with real sensor gaps.
//   - crashloop a fault that reproduces on every replay; the session
//     must exhaust MaxRestarts and be shed without touching its
//     neighbours or leaking its worker.
//
// Each session owns a private VirtualClock, so deadline and breaker
// accounting are deterministic per session regardless of scheduling;
// every number in the report is bit-stable across runs and worker
// interleavings. SoakReport.Check encodes the acceptance criteria.

// Soak profile names.
const (
	ProfNormal    = "normal"
	ProfJitter    = "jitter"
	ProfBurst     = "burst"
	ProfStall     = "stall"
	ProfPanic     = "panic"
	ProfCrashloop = "crashloop"
)

// SoakConfig sizes the chaos soak.
type SoakConfig struct {
	// Sessions is the number of concurrent streams.
	Sessions int
	// Samples is the raw per-stream length (rounded down to whole
	// rounds).
	Samples int
	// Panics is how many sessions get a one-shot mid-fall panic.
	Panics int
	// Crashloops is how many sessions get an unrecoverable fault
	// (default: 1 when Sessions >= 8, else 0; -1 forces 0).
	Crashloops int
	// Seed drives the per-session stream phases and jitter schedules.
	Seed int64
	// Precision is the compiled width of every session's pipeline
	// (and of each compared session's reference); the zero value is
	// tensor.F64.
	Precision tensor.Precision
	// Background, when non-nil, supplies each session's wear stream
	// (the CLIs feed internal/synth sessions here); it must be
	// deterministic for a given id. The harness splices the canonical
	// fall signature over [fallAt, fallAt+60), so trigger and
	// panic-injection timing stay under its control whatever the
	// background does. Nil uses a built-in quiet-wear sinusoid.
	Background func(id int) func(pos int) (acc, gyro imu.Vec3)
	// Log, when non-nil, receives the runtime's restart/shed lines.
	Log func(format string, args ...any)
}

// SoakSession is one session's outcome.
type SoakSession struct {
	ID       int
	Profile  string
	State    State
	Breaker  int
	Counters Counters
	// Triggered reports the latched fall trigger.
	Triggered bool
	// Compared is true when the session's decision stream was checked
	// against an uninterrupted single-threaded reference; Identical
	// is the result.
	Compared  bool
	Identical bool
}

// SoakReport is the full soak outcome.
type SoakReport struct {
	Sessions  []SoakSession
	Totals    Counters
	States    [4]int
	Rounds    int
	PerStream int // raw samples actually pushed per normal stream
	// HeapGrowthBytes is heap growth across the soak after GC; bound
	// it, do not print it verbatim (GC timing is not deterministic).
	HeapGrowthBytes int64
	// LeakErr is the goroutine-leak check outcome ("" = clean).
	LeakErr string
}

// soak wiring internals -----------------------------------------------

// soakPipeline builds one session's pipeline at width p: a cascade
// over 400 ms windows at 50 % overlap whose primary and fallback are
// both the stateless acceleration-threshold detector. The soak
// exercises the runtime, not the model, so no network is trained.
func soakPipeline(p tensor.Precision) (Pipeline, error) {
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		return nil, err
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		return nil, err
	}
	cfg := cascade.Config{WindowMS: 400, Overlap: 0.5}
	if p == tensor.F32 {
		return cascade.NewOf[float32](primary, fallback, cfg)
	}
	return cascade.NewOf[float64](primary, fallback, cfg)
}

// slowPipe models a stalled consumer: every data sample costs 200
// virtual ms on the session's private clock.
type slowPipe struct {
	Pipeline
	clk  *VirtualClock
	cost time.Duration
}

func (p *slowPipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	p.clk.Advance(p.cost)
	return p.Pipeline.Push(acc, gyro)
}

// gatePipe rendezvous with the harness on every data push, so a burst
// test can hold the worker mid-entry while the ingress ring
// deterministically overflows.
type gatePipe struct {
	Pipeline
	arrived chan struct{}
	release chan struct{}
}

func (p *gatePipe) Push(acc, gyro imu.Vec3) cascade.Decision {
	p.arrived <- struct{}{}
	<-p.release
	return p.Pipeline.Push(acc, gyro)
}

// soakStream returns the deterministic per-session sample generator:
// background wear (Background when supplied, a session-phased quiet
// sinusoid otherwise) with one canonical fall signature (free fall,
// then impact) spliced in at fallAt.
func soakStream(cfg SoakConfig, id, fallAt int) func(pos int) (imu.Vec3, imu.Vec3) {
	bg := func(pos int) (imu.Vec3, imu.Vec3) {
		phase := float64((cfg.Seed+int64(id)*7919)%977) * 0.013
		ph := float64(pos)*0.13 + phase
		return imu.Vec3{X: 0.05 * math.Sin(ph), Z: 1 + 0.02*math.Cos(ph)},
			imu.Vec3{X: 3 * math.Sin(ph), Y: 2 * math.Cos(ph)}
	}
	if cfg.Background != nil {
		bg = cfg.Background(id)
	}
	return func(pos int) (imu.Vec3, imu.Vec3) {
		k := pos - fallAt
		if k >= 0 && k < 60 {
			if k < 45 {
				return imu.Vec3{Z: 0.04}, imu.Vec3{X: 280, Y: 120}
			}
			return imu.Vec3{Z: 5.5}, imu.Vec3{X: 40}
		}
		return bg(pos)
	}
}

// assignProfiles spreads the chaos deterministically: panic sessions
// evenly across the fleet, crashloops at the tail, the rest cycling
// normal / jitter / burst / stall.
func assignProfiles(n, panics, crashloops int) []string {
	if panics > n-crashloops {
		panics = n - crashloops
	}
	prof := make([]string, n)
	cycle := []string{ProfNormal, ProfJitter, ProfBurst, ProfStall}
	for i := range prof {
		prof[i] = cycle[i%len(cycle)]
	}
	for i := 0; i < crashloops && i < n; i++ {
		prof[n-1-i] = ProfCrashloop
	}
	for i := 0; i < panics && i < n; i++ {
		idx := i * n / maxInt(panics, 1)
		for prof[idx] == ProfPanic || prof[idx] == ProfCrashloop {
			idx = (idx + 1) % n
		}
		prof[idx] = ProfPanic
	}
	return prof
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SynthBackground builds a SoakConfig.Background from internal/synth
// continuous-wear sessions: one seed-deterministic ADL-only session
// per stream id (the harness splices its own fall signature), looped
// if the soak outruns it. samples sizes the generated stream.
func SynthBackground(seed int64, samples int) func(id int) func(int) (imu.Vec3, imu.Vec3) {
	minutes := float64(samples)/6000 + 0.05 // 100 Hz, with headroom
	return func(id int) func(int) (imu.Vec3, imu.Vec3) {
		rng := rand.New(rand.NewSource(seed*9176867 + int64(id)))
		subj := synth.NewSubject(id+1, rng)
		s, err := synth.GenerateSession(subj,
			synth.SessionConfig{Minutes: minutes, FallRate: -1}, rng)
		if err != nil || len(s.Trial.Samples) == 0 {
			// The all-ADL vocabulary cannot fail to generate; fall
			// back to a flat stream rather than poison the soak.
			return func(int) (imu.Vec3, imu.Vec3) {
				return imu.Vec3{Z: 1}, imu.Vec3{}
			}
		}
		wear := s.Trial.Samples
		return func(pos int) (imu.Vec3, imu.Vec3) {
			smp := wear[pos%len(wear)]
			return smp.Acc, smp.Gyro
		}
	}
}

// RunSoak executes the chaos soak and returns the report. Every
// reported number is deterministic for a given config.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Sessions <= 0 || cfg.Samples <= 0 {
		return nil, fmt.Errorf("soak: Sessions and Samples must be positive")
	}
	if !cfg.Precision.Valid() {
		return nil, fmt.Errorf("soak: unknown %s", cfg.Precision)
	}
	const (
		roundLen = 30
		queueLen = 32
		burstLen = 2 * queueLen // overflow rounds push past the ring
		sampleMS = 10           // 100 Hz virtual cadence
		maxRst   = 3
	)
	n := cfg.Sessions
	crashloops := cfg.Crashloops
	if crashloops == 0 && n >= 8 {
		crashloops = 1
	}
	if crashloops < 0 {
		crashloops = 0
	}
	profiles := assignProfiles(n, cfg.Panics, crashloops)
	rounds := cfg.Samples / roundLen
	if rounds < 4 {
		return nil, fmt.Errorf("soak: Samples %d too short for %d-sample rounds", cfg.Samples, roundLen)
	}
	perStream := rounds * roundLen
	fallAt := perStream / 2

	// Fault plan, indexed by session: each slot is only ever touched
	// by the goroutine draining that session, one at a time, so no
	// locking is needed in the hook.
	planned := make([]int, n)
	persistent := make([]bool, n)
	fired := make([]bool, n)
	for id := range planned {
		planned[id] = -1
		switch profiles[id] {
		case ProfPanic:
			planned[id] = fallAt + 15 // kill mid-fall
		case ProfCrashloop:
			planned[id] = fallAt
			persistent[id] = true
		}
	}

	leak := StartLeakCheck()
	rt := New(Config{
		QueueLen:       queueLen,
		OutboxLen:      64,
		SnapshotEvery:  64,
		MaxRestarts:    maxRst,
		RestartBackoff: 100 * time.Microsecond,
		Deadline:       150 * time.Millisecond,
		// The breaker only sees evaluated decisions (~1 per window
		// hop); a small window lets stall sessions hit the floor
		// within a short soak.
		BreakerWindow: 16,
		Log:           cfg.Log,
		PushHook: func(session int, pos uint64) {
			at := planned[session]
			if at < 0 {
				return
			}
			if persistent[session] {
				if pos >= uint64(at) {
					panic(fmt.Sprintf("soak: unrecoverable fault in session %d at %d", session, pos))
				}
				return
			}
			if !fired[session] && pos == uint64(at) {
				fired[session] = true
				panic(fmt.Sprintf("soak: injected panic in session %d at %d", session, pos))
			}
		},
	})

	sessions := make([]*Session, n)
	clocks := make([]*VirtualClock, n)
	gates := make([]*gatePipe, n)
	gens := make([]func(int) (imu.Vec3, imu.Vec3), n)
	jitterRng := make([]*rand.Rand, n)
	pos := make([]int, n)
	acc := make([][]cascade.Decision, n)
	for id := 0; id < n; id++ {
		inner, err := soakPipeline(cfg.Precision)
		if err != nil {
			rt.Close()
			return nil, err
		}
		clk := NewVirtualClock()
		clocks[id] = clk
		var pipe Pipeline = inner
		switch profiles[id] {
		case ProfStall:
			pipe = &slowPipe{Pipeline: inner, clk: clk, cost: 200 * time.Millisecond}
		case ProfBurst:
			g := &gatePipe{Pipeline: inner, arrived: make(chan struct{}), release: make(chan struct{})}
			gates[id] = g
			pipe = g
		}
		sessions[id] = rt.OpenWith(pipe, func(c Config) Config { c.Now = clk.Now; return c })
		gens[id] = soakStream(cfg, id, fallAt)
		jitterRng[id] = rand.New(rand.NewSource(cfg.Seed*1000003 + int64(id)))
	}

	var msBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	for r := 0; r < rounds; r++ {
		// Phase 1: concurrent profiles enqueue their whole round batch;
		// the workers chew in parallel.
		for id := 0; id < n; id++ {
			s, gen := sessions[id], gens[id]
			switch profiles[id] {
			case ProfNormal, ProfPanic:
				for i := 0; i < roundLen; i++ {
					a, g := gen(pos[id])
					s.Push(a, g)
					pos[id]++
				}
			case ProfJitter:
				for i := 0; i < roundLen; {
					inFall := pos[id] >= fallAt-10 && pos[id] < fallAt+80
					if !inFall && jitterRng[id].Float64() < 0.12 {
						gap := 1 + jitterRng[id].Intn(4)
						if gap > roundLen-i {
							gap = roundLen - i
						}
						s.PushMissing(gap)
						pos[id] += gap
						i += gap
						continue
					}
					a, g := gen(pos[id])
					s.Push(a, g)
					pos[id]++
					i++
				}
			}
		}
		// Phase 2: lock-step profiles (their accounting depends on the
		// exact interleaving, so the harness serialises it). The
		// concurrent workers from phase 1 keep running meanwhile.
		for id := 0; id < n; id++ {
			s, gen := sessions[id], gens[id]
			switch profiles[id] {
			case ProfStall, ProfCrashloop:
				for i := 0; i < roundLen; i++ {
					a, g := gen(pos[id])
					s.Push(a, g)
					pos[id]++
					s.Quiesce()
				}
			case ProfBurst:
				batch := roundLen
				if r%4 == 3 {
					batch = burstLen
				}
				burstRound(s, gates[id], gen, &pos[id], batch, queueLen)
			}
		}
		rt.Quiesce()
		for id := 0; id < n; id++ {
			acc[id] = sessions[id].DrainDecisions(acc[id])
			if profiles[id] != ProfStall {
				clocks[id].Advance(roundLen * sampleMS * time.Millisecond)
			}
		}
	}
	rt.Quiesce()
	for id := 0; id < n; id++ {
		acc[id] = sessions[id].DrainDecisions(acc[id])
	}

	rep := &SoakReport{Rounds: rounds, PerStream: perStream}
	rep.States = rt.StateCounts()
	rep.Totals = rt.Counters()
	for id := 0; id < n; id++ {
		ss := SoakSession{
			ID:       id,
			Profile:  profiles[id],
			State:    sessions[id].State(),
			Breaker:  sessions[id].BreakerLevel(),
			Counters: sessions[id].Counters(),
		}
		_, ss.Triggered = sessions[id].TakeTrigger()
		if profiles[id] == ProfNormal || profiles[id] == ProfPanic {
			ss.Compared = true
			same, err := decisionsMatchReference(cfg, gens[id], perStream, acc[id])
			if err != nil {
				rt.Close()
				return nil, err
			}
			ss.Identical = same
		}
		rep.Sessions = append(rep.Sessions, ss)
	}

	rt.Close()
	var msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	rep.HeapGrowthBytes = int64(msAfter.HeapAlloc) - int64(msBefore.HeapAlloc)
	if err := leak.Check(); err != nil {
		rep.LeakErr = err.Error()
	}
	return rep, nil
}

// burstRound drives one gated burst: the first entry holds the worker
// at its rendezvous while the rest of the batch floods the ring, so
// exactly batch-1-queueLen raw samples shed, every run.
func burstRound(s *Session, g *gatePipe, gen func(int) (imu.Vec3, imu.Vec3), pos *int, batch, queueLen int) {
	a, gy := gen(*pos)
	s.Push(a, gy)
	*pos++
	<-g.arrived // worker is inside the first entry's Push
	for i := 1; i < batch; i++ {
		a, gy := gen(*pos)
		s.Push(a, gy)
		*pos++
	}
	g.release <- struct{}{}
	kept := batch - 1
	if kept > queueLen {
		kept = queueLen
	}
	for i := 0; i < kept; i++ {
		<-g.arrived
		g.release <- struct{}{}
	}
}

// decisionsMatchReference replays the session's stream through a
// fresh pipeline, single-threaded and uninterrupted, and compares the
// evaluated decision sequences — the soak's bit-identity oracle for
// panic recovery.
func decisionsMatchReference(cfg SoakConfig, gen func(int) (imu.Vec3, imu.Vec3), total int, got []cascade.Decision) (bool, error) {
	ref, err := soakPipeline(cfg.Precision)
	if err != nil {
		return false, err
	}
	var want []cascade.Decision
	for i := 0; i < total; i++ {
		a, g := gen(i)
		if d := ref.Push(a, g); d.Evaluated {
			want = append(want, d)
		}
	}
	if len(want) != len(got) {
		return false, nil
	}
	for i := range want {
		if want[i] != got[i] {
			return false, nil
		}
	}
	return true, nil
}

// WriteTable renders the per-session outcome grid plus the acceptance
// verdicts. Every table cell is deterministic for a given config;
// nondeterministic quantities (heap bytes) appear only as PASS/FAIL
// verdict lines, so results files stay byte-stable across runs.
func (r *SoakReport) WriteTable(w io.Writer) {
	tb := report.Table{
		Title: fmt.Sprintf("Chaos soak: %d sessions x %d samples (%d rounds)",
			len(r.Sessions), r.PerStream, r.Rounds),
		Headers: []string{"Sess", "Profile", "State", "Brk", "Enq", "Shed",
			"Missed", "Decis", "Panics", "Rst", "Trig", "Identical"},
	}
	for _, s := range r.Sessions {
		ident := "-"
		if s.Compared {
			ident = fmt.Sprintf("%v", s.Identical)
		}
		c := s.Counters
		tb.AddRow(s.ID, s.Profile, s.State.String(), s.Breaker,
			c.Enqueued, c.Shed, c.DeadlineMissed, c.Decisions,
			c.Panics, c.Restarts, s.Triggered, ident)
	}
	tb.Fprint(w)
	fmt.Fprintf(w, "\nstates: healthy=%d degraded=%d faulted=%d shed=%d\n",
		r.States[StateHealthy], r.States[StateDegraded], r.States[StateFaulted], r.States[StateShed])
	t := r.Totals
	fmt.Fprintf(w, "totals: enqueued=%d shed=%d missed=%d decisions=%d triggers=%d panics=%d restarts=%d snapshots=%d\n",
		t.Enqueued, t.Shed, t.DeadlineMissed, t.Decisions, t.Triggers, t.Panics, t.Restarts, t.Snapshots)
	verdict := func(name string, ok bool) {
		v := "PASS"
		if !ok {
			v = "FAIL"
		}
		fmt.Fprintf(w, "%-28s %s\n", name, v)
	}
	errs := r.Check()
	verdict("goroutine-leak check", r.LeakErr == "")
	verdict("heap growth bounded", r.HeapGrowthBytes <= 256<<20)
	verdict("soak acceptance (all)", len(errs) == 0)
	for _, e := range errs {
		fmt.Fprintf(w, "  FAIL %v\n", e)
	}
}

// Check encodes the soak acceptance criteria. It returns one error
// per violated criterion (nil slice = all pass):
//
//   - healthy (un-shed, un-stalled) sessions miss zero deadlines
//   - normal and panic sessions' decision streams are bit-identical
//     to the uninterrupted reference, and their falls trigger
//   - every injected panic is recovered by exactly one restore+replay
//   - burst sessions shed (and only shed — no crash, no miss)
//   - stall sessions are demoted to the floor by the breaker
//   - crashloop sessions exhaust MaxRestarts and end shed
//   - no goroutine leaks; heap growth stays bounded
func (r *SoakReport) Check() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, s := range r.Sessions {
		c := s.Counters
		switch s.Profile {
		case ProfNormal, ProfJitter, ProfPanic:
			if c.DeadlineMissed != 0 {
				fail("session %d (%s): %d missed deadlines, want 0", s.ID, s.Profile, c.DeadlineMissed)
			}
			if c.Shed != 0 {
				fail("session %d (%s): %d samples shed, want 0", s.ID, s.Profile, c.Shed)
			}
			if s.State == StateShed {
				fail("session %d (%s): shed", s.ID, s.Profile)
			}
			if !s.Triggered {
				fail("session %d (%s): fall did not trigger", s.ID, s.Profile)
			}
		}
		switch s.Profile {
		case ProfNormal:
			if c.Panics != 0 {
				fail("session %d (normal): %d panics", s.ID, c.Panics)
			}
		case ProfPanic:
			if c.Panics != 1 || c.Restarts != 1 {
				fail("session %d (panic): Panics/Restarts = %d/%d, want 1/1", s.ID, c.Panics, c.Restarts)
			}
		case ProfBurst:
			if c.Shed == 0 {
				fail("session %d (burst): never shed under overflow", s.ID)
			}
			if c.Panics != 0 || c.DeadlineMissed != 0 {
				fail("session %d (burst): Panics/Missed = %d/%d, want 0/0", s.ID, c.Panics, c.DeadlineMissed)
			}
			if s.State == StateShed {
				fail("session %d (burst): shed entirely, want load-shedding only", s.ID)
			}
		case ProfStall:
			if s.Breaker != 2 {
				fail("session %d (stall): breaker level %d, want 2 (floor)", s.ID, s.Breaker)
			}
			if c.DeadlineMissed == 0 {
				fail("session %d (stall): no missed deadlines at 200 ms/sample", s.ID)
			}
		case ProfCrashloop:
			if s.State != StateShed {
				fail("session %d (crashloop): state %v, want shed", s.ID, s.State)
			}
			if c.Restarts == 0 {
				fail("session %d (crashloop): shed without attempting restarts", s.ID)
			}
		}
		if s.Compared && !s.Identical {
			fail("session %d (%s): decision stream differs from the uninterrupted reference", s.ID, s.Profile)
		}
	}
	if r.LeakErr != "" {
		fail("goroutine leak: %s", r.LeakErr)
	}
	const heapBound = 256 << 20
	if r.HeapGrowthBytes > heapBound {
		fail("heap grew %d bytes across the soak, bound %d", r.HeapGrowthBytes, int64(heapBound))
	}
	return errs
}
