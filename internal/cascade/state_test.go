package cascade

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/artifact"
	"repro/internal/imu"
	"repro/internal/tensor"
)

// pushAt replays one deterministic mixed-stress sample into c: mostly
// quiet wear, with periodic NaN bursts, gyro dropouts, missing gaps and
// clipped spikes so every branch of the pipeline state machine carries
// non-trivial state into a snapshot.
func pushAt(c *Cascade, i int) Decision {
	switch {
	case i%97 == 45:
		return c.PushMissing(1)
	case i%89 == 30:
		return c.Push(imu.Vec3{X: math.NaN()}, imu.Vec3{})
	case i%83 == 20:
		acc, _ := quiet(i)
		return c.Push(acc, imu.Vec3{Y: math.Inf(1)})
	case i%79 == 10:
		return c.Push(imu.Vec3{Z: 30}, imu.Vec3{X: 4000})
	default:
		acc, gyro := quiet(i)
		return c.Push(acc, gyro)
	}
}

func decisionsEqual(a, b Decision) bool { return a == b }

// TestSnapshotRoundTripBitIdentical is the snapshot contract: a cascade
// restored from a snapshot and a cascade that never stopped produce
// identical decisions for every subsequent sample, and re-snapshotting
// both at any later point yields state-equal images.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	ref := newTestCascade(t, testCfg)
	for i := 0; i < 333; i++ {
		pushAt(ref, i)
	}
	img, err := ref.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	restored := newTestCascade(t, testCfg)
	if err := restored.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	for i := 333; i < 1000; i++ {
		da := pushAt(ref, i)
		db := pushAt(restored, i)
		if !decisionsEqual(da, db) {
			t.Fatalf("decisions diverge at sample %d:\n ref      %+v\n restored %+v", i, da, db)
		}
	}
	if ref.Detector().Stats() != restored.Detector().Stats() {
		t.Fatalf("fault counters diverged:\n ref      %+v\n restored %+v",
			ref.Detector().Stats(), restored.Detector().Stats())
	}
	a, err := ref.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("post-continuation snapshots differ")
	}
}

// fallSample synthesises the tail of a backward fall: free fall (near
// zero g, fast rotation) long enough for the threshold tiers' low-g run
// and velocity integrator to arm, then an impact spike.
func fallSample(k int) (imu.Vec3, imu.Vec3) {
	if k < 45 {
		return imu.Vec3{Z: 0.04}, imu.Vec3{X: 280, Y: 120}
	}
	return imu.Vec3{Z: 5.5}, imu.Vec3{X: 40}
}

// TestSnapshotMidFallSameTrigger kills a session in the middle of a
// fall and resumes it from the snapshot: the restored cascade must
// trigger on the same sample with the same probability and tier as the
// uninterrupted reference — the lead time the airbag sees is identical.
func TestSnapshotMidFallSameTrigger(t *testing.T) {
	ref := newTestCascade(t, testCfg)
	const quietLen, snapAt = 300, 315 // snapshot 15 samples into the fall
	for i := 0; i < quietLen; i++ {
		acc, gyro := quiet(i)
		ref.Push(acc, gyro)
	}
	var img []byte
	trigAt, trigRef := -1, Decision{}
	for k := 0; quietLen+k < 600; k++ {
		if quietLen+k == snapAt {
			var err error
			img, err = ref.AppendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		d := ref.Push(fallSample(k))
		if d.Triggered {
			trigAt, trigRef = quietLen+k, d
			break
		}
	}
	if trigAt < 0 {
		t.Fatal("reference cascade never triggered on the synthetic fall")
	}
	if trigAt < snapAt {
		t.Fatalf("fall triggered at %d, before the %d-sample snapshot point — fixture broken", trigAt, snapAt)
	}

	restored := newTestCascade(t, testCfg)
	if err := restored.RestoreFresh(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	for i := snapAt; i <= trigAt; i++ {
		d := restored.Push(fallSample(i - quietLen))
		if d.Triggered != (i == trigAt) {
			t.Fatalf("restored cascade trigger state at sample %d: %v, want trigger exactly at %d",
				i, d.Triggered, trigAt)
		}
		if i == trigAt && !decisionsEqual(d, trigRef) {
			t.Fatalf("restored trigger decision differs:\n ref      %+v\n restored %+v", trigRef, d)
		}
	}
}

// TestSnapshotCeilingSurvives: the tier ceiling is part of the snapshot
// and survives both Restore and Reset — it encodes host pressure, which
// does not go away because a stream restarted.
func TestSnapshotCeilingSurvives(t *testing.T) {
	c := newTestCascade(t, testCfg)
	c.SetTierCeiling(TierFallback)
	for i := 0; i < 100; i++ {
		acc, gyro := quiet(i)
		d := c.Push(acc, gyro)
		if d.SupervisorTier < TierFallback {
			t.Fatalf("sample %d: effective tier %v under a %v ceiling", i, d.SupervisorTier, TierFallback)
		}
	}
	if c.SupervisorTier() != TierPrimary {
		t.Fatalf("raw supervisor tier %v, want %v (ceiling must not leak into the state machine)",
			c.SupervisorTier(), TierPrimary)
	}
	img, err := c.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newTestCascade(t, testCfg)
	if err := c2.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if c2.TierCeiling() != TierFallback {
		t.Fatalf("restored ceiling %v, want %v", c2.TierCeiling(), TierFallback)
	}
	c2.Reset()
	if c2.TierCeiling() != TierFallback {
		t.Fatalf("Reset cleared the ceiling")
	}
	c2.SetTierCeiling(TierPrimary)
	if c2.TierCeiling() != TierPrimary {
		t.Fatal("ceiling not removable")
	}
}

// TestRestoreRejectsMismatchAndCorruption: a snapshot only ever applies
// to a configuration-identical cascade, and any byte damage is caught
// (by the envelope digest) before any state is interpreted.
func TestRestoreRejectsMismatchAndCorruption(t *testing.T) {
	c := newTestCascade(t, testCfg)
	for i := 0; i < 200; i++ {
		pushAt(c, i)
	}
	img, err := c.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	otherGeom := newTestCascade(t, Config{WindowMS: 600, Overlap: 0.5})
	if err := otherGeom.Restore(bytes.NewReader(img)); err == nil {
		t.Fatal("restore accepted a snapshot with a different window geometry")
	}
	otherThr := newTestCascade(t, Config{WindowMS: 400, Overlap: 0.5, Threshold: 0.9})
	if err := otherThr.Restore(bytes.NewReader(img)); err == nil {
		t.Fatal("restore accepted a snapshot with a different threshold")
	}

	for _, n := range []int{1, len(img) / 2, len(img) - 1} {
		bad := append([]byte(nil), img...)
		bad[n] ^= 0x40
		fresh := newTestCascade(t, testCfg)
		if err := fresh.Restore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("restore accepted a snapshot with byte %d flipped", n)
		}
	}
	for _, n := range []int{0, 8, len(img) - 9} {
		fresh := newTestCascade(t, testCfg)
		if err := fresh.Restore(bytes.NewReader(img[:n])); err == nil {
			t.Fatalf("restore accepted a snapshot truncated to %d bytes", n)
		}
	}

	// RestoreFresh after a failure leaves a cold but usable cascade.
	fresh := newTestCascade(t, testCfg)
	fresh.SetTierCeiling(TierFallback)
	if err := fresh.RestoreFresh(bytes.NewReader(img[:16])); err == nil {
		t.Fatal("RestoreFresh accepted a truncated snapshot")
	}
	if fresh.TierCeiling() != TierFallback {
		t.Fatal("failed RestoreFresh dropped the tier ceiling")
	}
	for i := 0; i < 100; i++ {
		acc, gyro := quiet(i)
		fresh.Push(acc, gyro)
	}
}

// TestRestoreRejectsTierWordsOutOfRange rewrites each tier word of a
// real snapshot payload (min tier, supervisor tier, ceiling) and
// re-seals it in a valid envelope, so only the decoder's range check
// stands between the word and the cascade. A word of 256 or 257 must
// not narrow to a valid Tier, and -1 must not wrap.
func TestRestoreRejectsTierWordsOutOfRange(t *testing.T) {
	c := newTestCascade(t, testCfg)
	c.SetTierCeiling(TierFallback)
	for i := 0; i < 200; i++ {
		pushAt(c, i)
	}
	payload := c.appendStatePayload(nil)
	seal := func(p []byte) []byte {
		img, err := artifact.AppendEnvelope(nil, StateKind, []int{c.det.Window, c.det.Step},
			tensor.F64, p)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if err := newTestCascade(t, testCfg).Restore(bytes.NewReader(seal(payload))); err != nil {
		t.Fatalf("re-sealed payload rejected: %v", err)
	}
	// Offsets in appendStatePayload: four words (version, threshold,
	// min tier, hold) and the one-byte fallback flag, then samples,
	// sinceEval and one counter per tier ahead of the supervisor tier,
	// healthy run and ceiling.
	sup := 4*8 + 1 + (2+int(NumTiers))*8
	words := []struct {
		name string
		off  int
		want Tier
	}{
		{"min tier", 2 * 8, c.sup.minTier},
		{"supervisor tier", sup, c.sup.tier},
		{"tier ceiling", sup + 2*8, TierFallback},
	}
	for _, w := range words {
		if got := binary.LittleEndian.Uint64(payload[w.off:]); got != uint64(w.want) {
			t.Fatalf("%s word at offset %d reads %d, want %d", w.name, w.off, got, w.want)
		}
		for _, v := range []int64{256, 257, -1} {
			bad := append([]byte(nil), payload...)
			binary.LittleEndian.PutUint64(bad[w.off:], uint64(v))
			if err := newTestCascade(t, testCfg).Restore(bytes.NewReader(seal(bad))); err == nil {
				t.Errorf("restore accepted %s word %d", w.name, v)
			}
		}
	}
}

// TestSnapshotMidMotionCNNStreamsBitIdentical kills a CNN cascade at
// an off-stride sample in the middle of violent motion and restores
// the snapshot into a freshly built cascade: every subsequent decision
// must match the uninterrupted reference bit-for-bit, and the two
// must re-snapshot to state-equal images. This is the crash-replay
// guarantee specifically for the incremental inference engine: the
// conv/pool rings are not serialised — they are rebuilt from the ring
// buffer on restore — so any drift between cache and ring shows up
// here as a probability-bit divergence.
func TestSnapshotMidMotionCNNStreamsBitIdentical(t *testing.T) {
	ref := newCNNCascade(t)
	const quietLen, snapAt, total = 300, 315, 600 // 315: mid-window, off stride
	push := func(c *Cascade, i int) Decision {
		if i < quietLen {
			acc, gyro := quiet(i)
			return c.Push(acc, gyro)
		}
		return c.Push(fallSample(i - quietLen))
	}
	var img []byte
	for i := 0; i < snapAt; i++ {
		push(ref, i)
	}
	img, err := ref.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}

	restored := newCNNCascade(t)
	if err := restored.RestoreFresh(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	evaluated := 0
	for i := snapAt; i < total; i++ {
		da := push(ref, i)
		db := push(restored, i)
		if da.Evaluated {
			evaluated++
		}
		if !decisionsEqual(da, db) {
			t.Fatalf("decisions diverge at sample %d:\n ref      %+v\n restored %+v", i, da, db)
		}
		if math.Float64bits(da.Probability) != math.Float64bits(db.Probability) {
			t.Fatalf("probability bits diverge at sample %d: %x vs %x",
				i, math.Float64bits(da.Probability), math.Float64bits(db.Probability))
		}
	}
	if evaluated == 0 {
		t.Fatal("fixture broken: no evaluations after the snapshot point")
	}
	a, err := ref.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("post-continuation snapshots differ")
	}
}
