// Package serve is the resilient multi-stream serving runtime: it
// multiplexes many concurrent IMU streams onto per-session detector
// cascades while guaranteeing that one misbehaving stream — a panic in
// its pipeline, a burst that outruns the consumer, a stall — cannot
// take down or even delay its neighbours.
//
// The runtime is built from four mechanisms (DESIGN.md §11):
//
//   - Bounded ingress. Each session owns a fixed-capacity ring of
//     pending samples. Producers never block: when a burst overflows
//     the ring the oldest entry is shed and accounted as a missing
//     sample on the next drain, so the detector's gap machinery (the
//     same one that handles radio dropouts) absorbs load shedding and
//     the decision cadence never stalls. Every accepted sample carries
//     a decision deadline; decisions produced after it are counted.
//     Deadlines and latencies are int64 nanoseconds on the session
//     clock: the runtime's own monotonic clock when Config.Now is nil,
//     read once before each applied sample and once more only when the
//     sample produces a decision.
//
//   - Crash isolation. Samples are applied under a recover barrier,
//     by the session's worker or by a Quiesce caller that drains the
//     ring itself, one goroutine at a time. A panic is converted to a
//     *guard.PanicError and the session restarts with exponential
//     backoff via guard.Run: the pipeline is restored from its last
//     snapshot and the samples applied since are replayed with
//     emission suppressed, so the restored session's visible decision
//     stream is bit-identical to one that never crashed. MaxRestarts
//     consecutive failures shed the session instead of burning the
//     host in a crash loop.
//
//   - Snapshots. Every SnapshotEvery samples the session captures the
//     pipeline state through the verified artifact envelope
//     (cascade.Snapshot), bounding both the replay log and the warm-up
//     a crash can lose.
//
//   - Latency breaker. A per-session p99 of decision latency, compared
//     against the pre-impact deadline (150 ms at the airbag), demotes
//     the cascade through its tier ceiling (accel-only CNN, then the
//     threshold floor) when the host cannot keep up, and promotes back
//     with hysteresis once p99 recovers.
//
// Concurrency in this package is sanctioned by the fallvet redorder
// allowlist (with internal/par and internal/guard); everything else in
// the repository stays sequential and deterministic.
package serve

import (
	"io"
	"time"

	"repro/internal/cascade"
	"repro/internal/imu"
)

// Pipeline is the per-session detector the runtime drives. It is the
// exact mutable surface of *cascade.Cascade; the indirection exists so
// tests can script panics and latencies without a real model.
//
// A Pipeline is driven by one goroutine at a time: the session's
// worker, or a Quiesce caller that found queued work unclaimed and
// drains it itself. The claim is taken and released under the
// session's mutex, so each runner happens after the last, and the
// runtime never calls a Pipeline concurrently: *cascade.Cascade's
// plain methods satisfy it without locks.
type Pipeline interface {
	// Push ingests one sample and returns the decision.
	Push(acc, gyro imu.Vec3) cascade.Decision
	// PushMissing accounts n samples the stream failed to deliver
	// (true sensor gaps and load-shed samples alike).
	PushMissing(n int) cascade.Decision
	// AppendSnapshot appends the complete serialised pipeline state
	// to dst and returns the extended slice. Sessions checkpoint on a
	// cadence and pass a reused buffer, so implementations must not
	// retain dst; at steady state the call should not allocate.
	AppendSnapshot(dst []byte) ([]byte, error)
	// RestoreFresh resets and then applies a snapshot; on error the
	// pipeline is cold but coherent.
	RestoreFresh(r io.Reader) error
	// Reset returns the pipeline to its cold state.
	Reset()
	// SetTierCeiling caps how capable a tier the pipeline may run
	// (host pressure, not sensor health).
	SetTierCeiling(t cascade.Tier)
}

// Config tunes the runtime. The zero value is usable: every field has
// a serving-grade default applied by New.
type Config struct {
	// QueueLen is the per-session ingress ring capacity in entries.
	// Default 64.
	QueueLen int //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// OutboxLen is how many evaluated decisions a session retains for
	// consumers; older ones are dropped (triggers are latched
	// separately and never lost). Default 32.
	OutboxLen int //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// SnapshotEvery is the snapshot cadence in samples. It bounds the
	// replay log and the warm-up lost to a crash. 0 disables
	// snapshots: a restart then falls back to replaying the session's
	// full history only if none has been discarded, otherwise the
	// pipeline restarts cold. 0 is the default — serving deployments
	// should set a cadence (the harnesses use 64–256).
	SnapshotEvery int //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// MaxRestarts is how many consecutive restore-and-replay attempts
	// a single failure may consume before the session is shed.
	// Default 3.
	MaxRestarts int //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// RestartBackoff is the first delay of the exponential backoff
	// between restart attempts (guard.Config.BaseDelay), capped at
	// restartMaxDelay. Default 1ms.
	RestartBackoff time.Duration //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// Deadline is the per-sample decision budget: a sample enqueued
	// at T whose decision lands after T+Deadline counts as a missed
	// deadline, and the latency breaker trips relative to it.
	// Default 150ms — the pre-impact airbag budget.
	Deadline time.Duration //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// BreakerWindow is how many decision latencies the p99 estimate
	// is computed over. Default 64.
	BreakerWindow int //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// BreakerTrip is a fraction of Deadline: p99 at or above
	// Trip×Deadline raises the tier ceiling one level (p99 at or
	// below breakerClear×Deadline for BreakerWindow consecutive
	// decisions lowers it one level). Default 0.8.
	BreakerTrip float64 //fallvet:derived immutable runtime configuration, fixed by New; never part of a session snapshot
	// Now is the clock. nil, the default, means the runtime's own
	// clock: one monotonic read per reading, with no wall-clock or
	// time.Time arithmetic. Tests and the deterministic soak harness
	// inject a VirtualClock. A session reads an injected clock as
	// Now().Sub(epoch), nanoseconds since its reading when the session
	// opened, so deadlines and latencies compare exactly as the
	// time.Time values would.
	Now func() time.Time
	// Log, when non-nil, receives one line per restart, shed and
	// breaker transition.
	Log func(format string, args ...any)
	// PushHook, when non-nil, runs on the goroutine draining the
	// session (its worker or a Quiesce caller) before each dequeued
	// entry is applied, with the session ID and the raw
	// stream position of the entry's first sample. It also runs
	// during replay (with the historical positions), so a hook that
	// panics unconditionally exhausts MaxRestarts and sheds the
	// session — exactly how the chaos soak injects faults.
	PushHook func(session int, pos uint64)
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.OutboxLen <= 0 {
		cfg.OutboxLen = 32
	}
	if cfg.SnapshotEvery < 0 {
		cfg.SnapshotEvery = 0
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = time.Millisecond
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 150 * time.Millisecond
	}
	if cfg.BreakerWindow <= 0 {
		cfg.BreakerWindow = 64
	}
	if cfg.BreakerTrip <= 0 {
		cfg.BreakerTrip = 0.8
	}
	return cfg
}

// State is a session's health as the supervisor reports it.
type State int32

const (
	// StateHealthy: keeping up, no breaker pressure, pipeline healthy.
	StateHealthy State = iota
	// StateDegraded: serving, but the breaker has demoted the tier
	// ceiling or the pipeline reports degraded sensor health.
	StateDegraded
	// StateFaulted: a restart cycle is in progress; decisions resume
	// (bit-identically) once the replay completes.
	StateFaulted
	// StateShed: terminal — the session exhausted MaxRestarts or was
	// closed under unrecoverable failure; its stream is dropped.
	StateShed
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateFaulted:
		return "faulted"
	case StateShed:
		return "shed"
	}
	return "invalid"
}

// Counters is a point-in-time snapshot of a session's (or, summed,
// the runtime's) accounting. All fields count raw samples or events
// since the session opened.
type Counters struct {
	// Enqueued is raw samples accepted into the ingress ring
	// (missing runs count their length).
	Enqueued int64
	// Shed is raw samples the pipeline never saw, each counted once:
	// those dropped by shed-oldest overflow, the failed entry and
	// backlog dropped when the session is shed, and samples rejected
	// after it closed or was shed.
	Shed int64
	// DeadlineMissed is decisions produced after their sample's
	// deadline.
	DeadlineMissed int64
	// Decisions is evaluated decisions emitted; Triggers is how many
	// of them crossed the threshold.
	Decisions int64
	Triggers  int64
	// Panics is pipeline panics caught; Restarts is restore-and-
	// replay attempts consumed recovering from them.
	Panics   int64
	Restarts int64
	// Snapshots is pipeline snapshots captured.
	Snapshots int64
	// OutboxDropped is evaluated decisions that aged out of the
	// outbox before a consumer drained them, triggered or not. Only
	// the first trigger is also latched for TakeTrigger, so it
	// survives the outbox.
	OutboxDropped int64
}

func (c Counters) add(o Counters) Counters {
	c.Enqueued += o.Enqueued
	c.Shed += o.Shed
	c.DeadlineMissed += o.DeadlineMissed
	c.Decisions += o.Decisions
	c.Triggers += o.Triggers
	c.Panics += o.Panics
	c.Restarts += o.Restarts
	c.Snapshots += o.Snapshots
	c.OutboxDropped += o.OutboxDropped
	return c
}
