package cascade

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

func newTestCascadeOf[S tensor.Scalar](t *testing.T, cfg Config) *CascadeOf[S] {
	t.Helper()
	primary, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := model.NewThreshold(model.KindThresholdAcc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewOf[S](primary, fallback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSnapshotKillRestoreBothWidths kills a mid-fall session at each
// compiled width and resumes it from the snapshot: the restored cascade
// must trigger on the same sample with the same decision as the
// uninterrupted reference. At float64 this re-pins the pre-generic
// contract; at float32 it proves the lowered state image (ring and
// caches serialized as exactly-widened float64 words) is lossless.
func TestSnapshotKillRestoreBothWidths(t *testing.T) {
	t.Run("f64", func(t *testing.T) { snapshotKillRestoreAt[float64](t) })
	t.Run("f32", func(t *testing.T) { snapshotKillRestoreAt[float32](t) })
}

func snapshotKillRestoreAt[S tensor.Scalar](t *testing.T) {
	ref := newTestCascadeOf[S](t, testCfg)
	const quietLen, snapAt = 300, 315
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

	restored := newTestCascadeOf[S](t, testCfg)
	if err := restored.RestoreFresh(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	for i := snapAt; i <= trigAt; i++ {
		d := restored.Push(fallSample(i - quietLen))
		if d.Triggered != (i == trigAt) {
			t.Fatalf("restored cascade trigger state at sample %d: %v, want trigger exactly at %d",
				i, d.Triggered, trigAt)
		}
		if i == trigAt && d != trigRef {
			t.Fatalf("restored trigger decision differs:\n ref      %+v\n restored %+v", trigRef, d)
		}
	}
}

// TestSnapshotContinuationBothWidths: a restored cascade and one that
// never stopped stay decision-identical over a long mixed-stress tail,
// and re-snapshotting both yields state-equal images — at both widths.
func TestSnapshotContinuationBothWidths(t *testing.T) {
	t.Run("f64", func(t *testing.T) { snapshotContinuationAt[float64](t) })
	t.Run("f32", func(t *testing.T) { snapshotContinuationAt[float32](t) })
}

func snapshotContinuationAt[S tensor.Scalar](t *testing.T) {
	push := func(c *CascadeOf[S], i int) Decision {
		if i%97 == 45 {
			return c.PushMissing(1)
		}
		acc, gyro := quiet(i)
		return c.Push(acc, gyro)
	}
	ref := newTestCascadeOf[S](t, testCfg)
	for i := 0; i < 333; i++ {
		push(ref, i)
	}
	img, err := ref.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := newTestCascadeOf[S](t, testCfg)
	if err := restored.Restore(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	for i := 333; i < 1000; i++ {
		if da, db := push(ref, i), push(restored, i); da != db {
			t.Fatalf("decisions diverge at sample %d:\n ref      %+v\n restored %+v", i, da, db)
		}
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

// TestSnapshotWidthMismatchRejected: a snapshot taken at one compiled
// width must never restore into a pipeline of the other — the error
// names both widths.
func TestSnapshotWidthMismatchRejected(t *testing.T) {
	c64 := newTestCascadeOf[float64](t, testCfg)
	c32 := newTestCascadeOf[float32](t, testCfg)
	for i := 0; i < 100; i++ {
		acc, gyro := quiet(i)
		c64.Push(acc, gyro)
		c32.Push(acc, gyro)
	}
	img64, err := c64.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	img32, err := c32.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	err = c32.Restore(bytes.NewReader(img64))
	if err == nil {
		t.Fatal("f32 cascade restored an f64 snapshot")
	}
	if !strings.Contains(err.Error(), "f64") || !strings.Contains(err.Error(), "f32") {
		t.Fatalf("width-mismatch error does not name both widths: %v", err)
	}
	if err := c64.Restore(bytes.NewReader(img32)); err == nil {
		t.Fatal("f64 cascade restored an f32 snapshot")
	}
}
