package edge

import (
	"encoding/binary"
	"testing"

	"repro/internal/artifact"
	"repro/internal/imu"
)

// TestReadStateRejectsFilterKind: the filter-kind word is outside
// input, so ReadState must refuse any value but the float cascade's —
// 1 is the tag the retired Q16.16 pre-filter wrote — rather than load
// its filter state into the float cascade.
func TestReadStateRejectsFilterKind(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	for i := 0; i < 50; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{X: float64(i % 7)})
	}
	img := det.AppendState(nil)
	const kindAt = 5 * 8 // after version, dtype, window, step, threshold
	if k := binary.LittleEndian.Uint64(img[kindAt:]); k != filterKindFloat {
		t.Fatalf("word at offset %d is %d, want the float filter kind %d", kindAt, k, filterKindFloat)
	}

	fresh := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	if err := fresh.ReadState(artifact.NewStateReader(img)); err != nil {
		t.Fatalf("unmodified image rejected: %v", err)
	}
	binary.LittleEndian.PutUint64(img[kindAt:], 1)
	fresh = newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	if err := fresh.ReadState(artifact.NewStateReader(img)); err == nil {
		t.Fatal("ReadState accepted filter kind 1")
	}
}

// TestReadStateRejectsWideDType: the dtype word is 64 bits wide, so a
// word whose low byte names a width but whose high bytes are set (256
// reads as f64 once narrowed) must be refused, not restored as f64.
func TestReadStateRejectsWideDType(t *testing.T) {
	det := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
	for i := 0; i < 50; i++ {
		det.Push(imu.Vec3{Z: 1}, imu.Vec3{X: float64(i % 7)})
	}
	img := det.AppendState(nil)
	const dtypeAt = 8 // after version
	if w := binary.LittleEndian.Uint64(img[dtypeAt:]); w != 0 {
		t.Fatalf("word at offset %d is %d, want the f64 dtype 0", dtypeAt, w)
	}
	for _, w := range []uint64{256, 1 << 32, 257} {
		mut := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(mut[dtypeAt:], w)
		fresh := newThresholdDetector(t, DetectorConfig{WindowMS: 200, Overlap: 0.5})
		if err := fresh.ReadState(artifact.NewStateReader(mut)); err == nil {
			t.Fatalf("ReadState accepted dtype word %d", w)
		}
	}
}
