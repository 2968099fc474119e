package cascade

import (
	"math"
	"testing"

	"repro/internal/imu"
	"repro/internal/model"
)

// FuzzCascadePush drives the cascade with an arbitrary byte-script of
// hostile sensor behaviour and asserts the decision guarantee: the
// cascade never panics, probabilities stay finite in [0,1], the
// supervisor moves one tier per sample at most, and once the stream is
// Step samples old no run of Step consecutive pushes passes without an
// Evaluated decision — whatever the sensor does.
func FuzzCascadePush(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(make([]byte, 256))
	flap := make([]byte, 300)
	for i := range flap {
		flap[i] = byte(i % 3) // missing / NaN acc / NaN gyro round-robin
	}
	f.Add(flap)
	f.Fuzz(func(t *testing.T, data []byte) {
		primary, err := model.NewThreshold(model.KindThresholdAcc)
		if err != nil {
			t.Fatal(err)
		}
		fallback, err := model.NewThreshold(model.KindThresholdAcc)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewOf[float64](primary, fallback, Config{WindowMS: 200, Overlap: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		nan := math.NaN()
		prevTier := c.SupervisorTier()
		pushes, sinceEval := 0, 0
		check := func(d Decision) {
			pushes++
			if d.Evaluated {
				sinceEval = 0
				if math.IsNaN(d.Probability) || d.Probability < 0 || d.Probability > 1 {
					t.Fatalf("probability %v outside [0,1]", d.Probability)
				}
				if d.Tier < TierPrimary || d.Tier > TierThreshold {
					t.Fatalf("decision from tier %v", d.Tier)
				}
				if d.Tier < d.SupervisorTier {
					t.Fatalf("decision tier %v better than supervisor tier %v", d.Tier, d.SupervisorTier)
				}
			} else if sinceEval++; pushes > c.Step() && sinceEval >= c.Step() {
				t.Fatalf("no decision for %d consecutive pushes (step %d)", sinceEval, c.Step())
			}
			if diff := int(d.SupervisorTier) - int(prevTier); diff < -1 || diff > 1 {
				t.Fatalf("supervisor jumped %v -> %v", prevTier, d.SupervisorTier)
			}
			prevTier = d.SupervisorTier
		}
		// Replay the script three times so faults land both before and
		// after the window first fills.
		for rep := 0; rep < 3; rep++ {
			for i, b := range data {
				v := float64(b)/16 - 8 // [-8, 8): in and out of range
				ph := float64(i) * 0.3
				acc := imu.Vec3{X: 0.1 * math.Sin(ph), Z: 1 + v/100}
				gyro := imu.Vec3{Y: 10 * math.Cos(ph)}
				switch b % 8 {
				case 0:
					check(c.PushMissing(1))
					continue
				case 1:
					acc = imu.Vec3{X: nan, Y: nan, Z: nan}
				case 2:
					gyro = imu.Vec3{X: nan, Y: math.Inf(1), Z: nan}
				case 3:
					acc = imu.Vec3{X: v * 1e307, Y: -v * 1e307, Z: v}
					gyro = imu.Vec3{X: v * 1e8}
				case 4:
					acc, gyro = imu.Vec3{Z: 1}, imu.Vec3{} // frozen pair
				}
				check(c.Push(acc, gyro))
			}
		}
	})
}
