package artifact

import (
	"math"
	"testing"
)

// Bytes hands out the next n payload bytes in place, capped, and
// rejects a negative or oversized n without slicing: a length read
// from hostile input can neither panic nor allocate.
func TestStateReaderBytes(t *testing.T) {
	r := NewStateReader(append(AppendInt(nil, 3), "abcXY"...))
	b := r.Bytes(r.Int())
	if string(b) != "abc" || cap(b) != 3 {
		t.Fatalf("Bytes = %q (cap %d), want \"abc\" (cap 3)", b, cap(b))
	}
	if b := r.Bytes(2); string(b) != "XY" || r.Close() != nil {
		t.Fatalf("Bytes = %q, Close = %v", b, r.Close())
	}
	for _, n := range []int{-1, 3, math.MaxInt} {
		r := NewStateReader([]byte("XY"))
		if b := r.Bytes(n); b != nil || r.Err() == nil {
			t.Fatalf("Bytes(%d) of 2 bytes = %q, err %v", n, b, r.Err())
		}
		if b := r.Bytes(0); b != nil || r.Close() == nil {
			t.Fatalf("after Bytes(%d) failed: Bytes(0) = %q, Close = %v", n, b, r.Close())
		}
	}
}
