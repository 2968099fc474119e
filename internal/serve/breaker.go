package serve

import (
	"time"

	"repro/internal/cascade"
)

// breakerClear is the fraction of the deadline a p99 must stay at or
// below for a decision to count as calm.
const breakerClear = 0.4

// breaker is the per-session latency circuit breaker. It keeps a
// sliding window of decision latencies, estimates the p99, and maps
// sustained pressure against the decision deadline onto a tier
// ceiling: level 0 is unconstrained (TierPrimary ceiling — no cap),
// level 1 caps the cascade at the accelerometer-only CNN, level 2 at
// the threshold floor. Demotion is immediate — a session close to the
// 150 ms airbag budget must get cheaper now — while promotion needs a
// window's worth of consecutive calm decisions (p99 at or below
// breakerClear×Deadline), so the ceiling does not flap around the trip
// point.
//
// The breaker is owned by whichever goroutine drains the session (one
// at a time); it is not concurrency-safe on its own.
type breaker struct {
	window  []time.Duration
	scratch []time.Duration
	pos, n  int
	level   int
	calm    int
}

func newBreaker(window int) breaker {
	return breaker{
		window:  make([]time.Duration, window),
		scratch: make([]time.Duration, 0, window),
	}
}

// ceiling maps a breaker level to the cascade tier ceiling it imposes.
func breakerCeiling(level int) cascade.Tier {
	switch level {
	case 0:
		return cascade.TierPrimary
	case 1:
		return cascade.TierFallback
	default:
		return cascade.TierThreshold
	}
}

// p99 returns the 99th-percentile latency over the current window:
// the ceil(0.99·n)-th smallest of the n entries, i.e. the k-th largest
// with k = n − ceil(0.99·n) + 1. Up to a window of 100, k is 1 and the
// answer is the maximum; a window of 200 needs the third largest. A
// descending top-k kept in the scratch buffer selects it in one pass
// over the window — no sort, no allocation on the serving path.
func (b *breaker) p99() time.Duration {
	n := b.n
	idx := (99*n + 99) / 100 // ceil(0.99·n)
	if idx > n {
		idx = n
	}
	k := n - idx + 1
	top := b.scratch[:0] // the k largest seen so far, descending
	for _, v := range b.window[:n] {
		if len(top) == k {
			if v <= top[k-1] {
				continue
			}
		} else {
			top = append(top, v)
		}
		j := len(top) - 1
		for j > 0 && top[j-1] < v {
			top[j] = top[j-1]
			j--
		}
		top[j] = v
	}
	return top[k-1]
}

// observe records one decision latency and returns the (possibly
// changed) breaker level. The level only moves once at least half the
// window is populated, so a cold session is not tripped by its first
// outlier.
func (b *breaker) observe(lat, deadline time.Duration, trip float64) (level int, changed bool) {
	b.window[b.pos] = lat
	b.pos = (b.pos + 1) % len(b.window)
	if b.n < len(b.window) {
		b.n++
	}
	if b.n < len(b.window)/2 {
		return b.level, false
	}
	p := float64(b.p99())
	d := float64(deadline)
	switch {
	case p >= trip*d && b.level < 2:
		b.level++
		b.calm = 0
		return b.level, true
	case p <= breakerClear*d && b.level > 0:
		b.calm++
		if b.calm >= len(b.window) {
			b.level--
			b.calm = 0
			return b.level, true
		}
	default:
		b.calm = 0
	}
	return b.level, false
}
