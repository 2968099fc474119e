package edge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/imu"
	"repro/internal/model"
)

// TestDetectorPushAllocationFree asserts the real-time contract: after
// the ring buffer has filled and the classifier scratch has warmed up,
// Push never touches the allocator — not on plain samples and not on
// the stride samples that run the full CNN forward pass.
func TestDetectorPushAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetectorOf[float64](m, DetectorConfig{WindowMS: 400, Overlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sample := func(i int) (imu.Vec3, imu.Vec3) {
		ph := float64(i) * 0.1
		return imu.Vec3{X: 0.1 * math.Sin(ph), Z: 1},
			imu.Vec3{Y: 5 * math.Cos(ph)}
	}
	// Warm up: fill the window and run a few evaluations so every
	// layer's scratch is sized.
	n := 0
	for i := 0; i < 3*det.Window; i++ {
		det.Push(sample(n))
		n++
	}
	// Each run covers one full stride, so exactly one classifier
	// evaluation happens inside the measured region.
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < det.Step; i++ {
			det.Push(sample(n))
			n++
		}
	}); allocs != 0 {
		t.Errorf("Push allocates %.1f objects per stride at steady state, want 0", allocs)
	}
}
