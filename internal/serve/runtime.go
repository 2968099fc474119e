package serve

import "sync"

// Runtime is the global supervisor: it owns the session table, hands
// out crash-isolated sessions, and aggregates their health and
// accounting for operators. All methods are safe for concurrent use.
type Runtime struct {
	cfg Config

	mu       sync.Mutex
	sessions []*Session
	closed   bool
}

// New builds a runtime with cfg (zero fields get serving defaults,
// see Config).
func New(cfg Config) *Runtime {
	return &Runtime{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration after defaulting.
func (rt *Runtime) Config() Config { return rt.cfg }

// Open registers a new session around p and starts its worker. The
// pipeline must not be touched by the caller afterwards — the session
// owns it. Returns nil after Close.
func (rt *Runtime) Open(p Pipeline) *Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil
	}
	s := newSession(len(rt.sessions), p, rt.cfg)
	rt.sessions = append(rt.sessions, s)
	return s
}

// OpenWith is Open with a per-session configuration override: custom
// receives the runtime's effective config and returns the config for
// this session only. The chaos soak uses it to give each session a
// private VirtualClock so deadline accounting stays deterministic
// across sessions with different fault profiles.
func (rt *Runtime) OpenWith(p Pipeline, custom func(Config) Config) *Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil
	}
	cfg := rt.cfg
	if custom != nil {
		cfg = custom(cfg).withDefaults()
	}
	s := newSession(len(rt.sessions), p, cfg)
	rt.sessions = append(rt.sessions, s)
	return s
}

// Sessions returns a snapshot of the session table (index == ID).
func (rt *Runtime) Sessions() []*Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Session, len(rt.sessions))
	copy(out, rt.sessions)
	return out
}

// Session returns the session with the given ID, or nil.
func (rt *Runtime) Session(id int) *Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id < 0 || id >= len(rt.sessions) {
		return nil
	}
	return rt.sessions[id]
}

// Quiesce blocks until every session is idle: all ingress drained and
// no session mid-entry (shed sessions count as idle). It quiesces the
// sessions in ID order, so a session whose backlog no goroutine has
// claimed is drained on the calling goroutine (Session.Quiesce). The
// chaos soak uses it as its lock-step round barrier.
func (rt *Runtime) Quiesce() {
	for _, s := range rt.Sessions() {
		s.Quiesce()
	}
}

// Counters sums every session's accounting.
func (rt *Runtime) Counters() Counters {
	var total Counters
	for _, s := range rt.Sessions() {
		total = total.add(s.Counters())
	}
	return total
}

// StateCounts reports how many sessions are in each State, indexed by
// the State value (StateHealthy, StateDegraded, StateFaulted,
// StateShed).
func (rt *Runtime) StateCounts() [4]int {
	var counts [4]int
	for _, s := range rt.Sessions() {
		counts[s.State()]++
	}
	return counts
}

// Close drains and stops every session and rejects further Opens.
// Idempotent; safe to call while producers are still pushing (their
// pushes fail cleanly).
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	sessions := make([]*Session, len(rt.sessions))
	copy(sessions, rt.sessions)
	rt.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}
