package cascade

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/imu"
	"repro/internal/model"
)

// newCNNCascade builds the deployment configuration: real paper CNN as
// tier 0, accel-only CNN as tier 1.
func newCNNCascade(t testing.TB) *Cascade {
	rng := rand.New(rand.NewSource(7))
	primary, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.New(model.KindCNNAccel, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewOf[float64](primary, fallback, Config{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCascadePushAllocationFree asserts the real-time contract at
// every tier: once the ring and the model scratch are warm, a full
// stride of pushes — including the evaluation — never touches the
// allocator, no matter which tier is deciding.
func TestCascadePushAllocationFree(t *testing.T) {
	nan := math.NaN()
	badAcc := imu.Vec3{X: nan, Y: nan, Z: nan}
	badGyro := imu.Vec3{X: nan, Y: nan, Z: nan}
	cases := []struct {
		name string
		tier Tier
		push func(c *Cascade, i int) Decision
	}{
		{"tier0-primary", TierPrimary, func(c *Cascade, i int) Decision {
			acc, gyro := quiet(i)
			return c.Push(acc, gyro)
		}},
		{"tier1-accel-fallback", TierFallback, func(c *Cascade, i int) Decision {
			acc, _ := quiet(i)
			return c.Push(acc, badGyro)
		}},
		{"tier2-threshold-floor", TierThreshold, func(c *Cascade, i int) Decision {
			return c.Push(badAcc, badGyro)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCNNCascade(t)
			n := 0
			// Clean warm-up first (fills the window, sizes both models'
			// scratch via one evaluation each), then the fault regime
			// until the supervisor settles on the tier under test.
			for i := 0; i < 3*c.Window(); i++ {
				acc, gyro := quiet(n)
				c.Push(acc, gyro)
				n++
			}
			// Warm the fallback's scratch explicitly: its first Forward
			// grows per-layer buffers once.
			c.Detector().ScoreWindow(c.fallback)
			for i := 0; i < 4*c.Window(); i++ {
				tc.push(c, n)
				n++
			}
			if got := c.SupervisorTier(); got != tc.tier {
				t.Fatalf("supervisor settled at %v, want %v", got, tc.tier)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < c.Step(); i++ {
					tc.push(c, n)
					n++
				}
			}); allocs != 0 {
				t.Errorf("%s: Push allocates %.1f objects per stride at steady state, want 0",
					tc.name, allocs)
			}
		})
	}
}

// TestCascadePushMissingAllocationFree covers the outage path: the
// threshold-floor backstop that keeps decisions flowing during a long
// gap must be allocation-free too.
func TestCascadePushMissingAllocationFree(t *testing.T) {
	c := newCNNCascade(t)
	for i := 0; i < 3*c.Window(); i++ {
		acc, gyro := quiet(i)
		c.Push(acc, gyro)
	}
	for i := 0; i < 4*c.Window(); i++ {
		c.PushMissing(1)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < c.Step(); i++ {
			c.PushMissing(1)
		}
	}); allocs != 0 {
		t.Errorf("PushMissing allocates %.1f objects per stride, want 0", allocs)
	}
}
