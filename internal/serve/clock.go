package serve

import (
	"sync/atomic"
	"time"
)

// VirtualClock is a deterministic clock for tests and the chaos soak:
// time advances only when the harness says so, so deadline accounting
// and breaker behaviour are reproducible sample-for-sample across
// runs and worker counts. Now is safe to call from any goroutine;
// Advance publishes atomically.
type VirtualClock struct {
	nanos atomic.Int64
}

// NewVirtualClock returns a clock reading the epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual instant.
func (c *VirtualClock) Now() time.Time {
	return time.Unix(0, c.nanos.Load())
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *VirtualClock) Advance(d time.Duration) {
	if d > 0 {
		c.nanos.Add(int64(d))
	}
}
