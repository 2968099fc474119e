package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortedP99 is the definition p99 must reproduce: sort the window and
// take the ceil(0.99·n)-th smallest entry.
func sortedP99(window []time.Duration) time.Duration {
	s := append([]time.Duration(nil), window...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (99*len(s) + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// TestBreakerP99MatchesSort checks the sort-free selection against the
// sort definition on full and partly filled windows, including ties
// at and around the selected rank.
func TestBreakerP99MatchesSort(t *testing.T) {
	fills := []struct {
		name string
		gen  func(rng *rand.Rand, i int) time.Duration
	}{
		{"distinct", func(rng *rand.Rand, i int) time.Duration { return time.Duration(rng.Int63n(1e9)) }},
		{"few-values", func(rng *rand.Rand, i int) time.Duration { return time.Duration(rng.Intn(3)) * time.Millisecond }},
		{"all-equal", func(rng *rand.Rand, i int) time.Duration { return 7 * time.Millisecond }},
		{"max-tied", func(rng *rand.Rand, i int) time.Duration {
			if i%50 == 0 {
				return time.Second
			}
			return time.Duration(rng.Intn(100)) * time.Microsecond
		}},
		{"ascending", func(rng *rand.Rand, i int) time.Duration { return time.Duration(i) }},
		{"descending", func(rng *rand.Rand, i int) time.Duration { return time.Duration(1000 - i) }},
	}
	for _, window := range []int{8, 16, 64, 200} {
		for _, f := range fills {
			t.Run(fmt.Sprintf("window%d/%s", window, f.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(window)))
				b := newBreaker(window)
				// 2.5 windows: partial fills, then wrap-around overwrites.
				for i := 0; i < window*5/2; i++ {
					b.window[b.pos] = f.gen(rng, i)
					b.pos = (b.pos + 1) % window
					if b.n < window {
						b.n++
					}
					got, want := b.p99(), sortedP99(b.window[:b.n])
					if got != want {
						t.Fatalf("after %d entries (n=%d): p99 %v, sort definition %v", i+1, b.n, got, want)
					}
				}
			})
		}
	}
}

// TestBreakerP99AllocationFree: the selection runs on every decision.
func TestBreakerP99AllocationFree(t *testing.T) {
	b := newBreaker(200)
	for i := range b.window {
		b.window[i] = time.Duration(i * 37 % 101)
	}
	b.n = len(b.window)
	if a := testing.AllocsPerRun(100, func() { b.p99() }); a != 0 {
		t.Fatalf("p99 allocates %.1f objects per call, want 0", a)
	}
}
