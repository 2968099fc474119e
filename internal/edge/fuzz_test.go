package edge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/imu"
	"repro/internal/model"
)

// FuzzDetectorPush asserts the hardened ingestion invariants for
// arbitrary — including non-finite — sensor input: Push never panics,
// never reports a non-finite (or out-of-[0,1]) probability, keeps the
// health state within its enumeration, and lets no non-finite value
// reach the ring buffer.
func FuzzDetectorPush(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(math.NaN(), 0.0, 1.0, 0.0, math.NaN(), 0.0)
	f.Add(math.Inf(1), math.Inf(-1), 0.0, 1e308, -1e308, 5.0)
	f.Add(0.1, -0.1, 0.9, 2000.0, -2000.0, 123.0)
	f.Add(1e-300, -1e-300, 6.5, 1e18, math.Inf(-1), math.NaN())

	clf, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		f.Fatal(err)
	}
	det, err := NewDetectorOf[float64](clf, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, ax, ay, az, gx, gy, gz float64) {
		r := det.Push(imu.Vec3{X: ax, Y: ay, Z: az}, imu.Vec3{X: gx, Y: gy, Z: gz})
		if math.IsNaN(r.Probability) || math.IsInf(r.Probability, 0) {
			t.Fatalf("non-finite probability from Push(%g,%g,%g, %g,%g,%g)",
				ax, ay, az, gx, gy, gz)
		}
		if r.Probability < 0 || r.Probability > 1 {
			t.Fatalf("probability %g outside [0,1]", r.Probability)
		}
		if r.Health < HealthHealthy || r.Health > HealthFaulted {
			t.Fatalf("health %d outside enumeration", r.Health)
		}
		// A ring buffer poisoned by a smuggled non-finite value
		// would surface on a later evaluation; check it directly.
		for _, v := range det.ring {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite value reached the ring buffer from Push(%g,%g,%g, %g,%g,%g)",
					ax, ay, az, gx, gy, gz)
			}
		}
	})
}

// batchOnly hides the concrete *model.NetModel so AttachStream's type
// assertion fails: a detector built around it always assembles and
// scores the full window, never the incremental caches.
type batchOnly struct{ model.Classifier }

// FuzzIncrementalScore is the equivalence oracle for the incremental
// inference engine (DESIGN §12): a detector answering from its
// per-layer conv/pool rings and a detector re-running the CNN over the
// assembled window must produce bit-identical results — probability
// bits included — on arbitrary streams of quiet wear, violent motion,
// clamped readings, non-finite garbage and sensor gaps. Any divergence
// means a streaming cache no longer mirrors the ring buffer.
func FuzzIncrementalScore(f *testing.F) {
	f.Add(int64(1), uint16(120))
	f.Add(int64(2), uint16(300))
	f.Add(int64(-77), uint16(64))
	f.Add(int64(987654), uint16(513))

	m, err := model.New(model.KindCNN, model.Config{WindowSamples: 40}, rand.New(rand.NewSource(9)))
	if err != nil {
		f.Fatal(err)
	}
	cfg := DetectorConfig{WindowMS: 400, Overlap: 0.5}
	streamDet, err := NewDetectorOf[float64](m, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if len(streamDet.streams) == 0 {
		f.Fatal("CNN detector did not attach an incremental scorer — fuzz would compare batch to batch")
	}
	batchDet, err := NewDetectorOf[float64](batchOnly{m}, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if len(batchDet.streams) != 0 {
		f.Fatal("wrapped classifier unexpectedly attached a scorer")
	}

	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		steps := int(n)%512 + 64
		streamDet.Reset()
		batchDet.Reset()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < steps; i++ {
			var ra, rb Result
			switch op := rng.Intn(100); {
			case op < 4:
				k := 1 + rng.Intn(8) // spans bridged and re-prime gaps
				ra = streamDet.PushMissing(k)
				rb = batchDet.PushMissing(k)
			case op < 7: // quarantine path
				acc := imu.Vec3{X: math.NaN(), Z: 1}
				ra = streamDet.Push(acc, imu.Vec3{})
				rb = batchDet.Push(acc, imu.Vec3{})
			case op < 10: // gyro hold path
				acc := imu.Vec3{Z: 1}
				gyro := imu.Vec3{Y: math.Inf(1)}
				ra = streamDet.Push(acc, gyro)
				rb = batchDet.Push(acc, gyro)
			case op < 14: // clamp path
				acc := imu.Vec3{Z: 20 + rng.Float64()}
				gyro := imu.Vec3{X: 3000 * rng.NormFloat64()}
				ra = streamDet.Push(acc, gyro)
				rb = batchDet.Push(acc, gyro)
			default: // plausible wear, amplitude varied to cross ReLU signs
				amp := rng.Float64() * 4
				acc := imu.Vec3{X: amp * rng.NormFloat64(), Y: amp * rng.NormFloat64(), Z: 1 + amp*rng.NormFloat64()}
				gyro := imu.Vec3{X: 90 * rng.NormFloat64(), Y: 90 * rng.NormFloat64(), Z: 90 * rng.NormFloat64()}
				ra = streamDet.Push(acc, gyro)
				rb = batchDet.Push(acc, gyro)
			}
			if ra.Evaluated != rb.Evaluated || ra.Triggered != rb.Triggered ||
				ra.Health != rb.Health || ra.Quarantined != rb.Quarantined ||
				ra.Clamped != rb.Clamped {
				t.Fatalf("seed=%d step %d: results diverge:\n streaming %+v\n batch     %+v", seed, i, ra, rb)
			}
			if math.Float64bits(ra.Probability) != math.Float64bits(rb.Probability) {
				t.Fatalf("seed=%d step %d: probability bits diverge: streaming %x (%g), batch %x (%g)",
					seed, i, math.Float64bits(ra.Probability), ra.Probability,
					math.Float64bits(rb.Probability), rb.Probability)
			}
		}
	})
}
