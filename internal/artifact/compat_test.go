package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// v1Envelope frames payload exactly as every pre-dtype writer did:
// magic | version=1 | kind | shape | payload | sha256 — no dtype byte.
// It pins the historical layout byte for byte, independent of the
// current writer.
func v1Envelope(kind string, shape []int, payload []byte) []byte {
	le := binary.LittleEndian
	raw := []byte(Magic)
	raw = le.AppendUint32(raw, 1)
	raw = le.AppendUint16(raw, uint16(len(kind)))
	raw = append(raw, kind...)
	raw = le.AppendUint16(raw, uint16(len(shape)))
	for _, d := range shape {
		raw = le.AppendUint32(raw, uint32(d))
	}
	raw = le.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	sum := sha256.Sum256(raw)
	return append(raw, sum[:]...)
}

// A pre-bump (version-1) envelope must still load, and must decode as
// float64 state — the width every version-1 writer produced.
func TestVersion1LoadsAsFloat64(t *testing.T) {
	payload := []byte("pre-bump float64 weights")
	raw := v1Envelope("nn-float64", []int{40, 9}, payload)
	h, got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 1 {
		t.Fatalf("version %d, want 1", h.Version)
	}
	if h.DType != tensor.F64 {
		t.Fatalf("v1 envelope decoded as %s, want %s", h.DType, tensor.F64)
	}
	if h.Kind != "nn-float64" || len(h.Shape) != 2 || h.Shape[0] != 40 || h.Shape[1] != 9 {
		t.Fatalf("header %+v", h)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

// Chaos over the legacy framing: every truncation and every single bit
// flip of a version-1 envelope must yield a structured error, exactly
// as for the current version.
func TestVersion1ChaosRejected(t *testing.T) {
	raw := v1Envelope("qnet-int8", []int{40, 9}, []byte("legacy payload bytes"))
	for n := 0; n < len(raw); n++ {
		if _, _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("v1 truncation to %d/%d bytes accepted", n, len(raw))
		}
	}
	for i := 0; i < len(raw); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			if _, _, err := Read(bytes.NewReader(mut)); err == nil {
				t.Fatalf("v1 bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
}

// The dtype byte must round-trip for both widths and reject everything
// else, at write and at read.
func TestDTypeHeader(t *testing.T) {
	for _, dt := range []tensor.Precision{tensor.F64, tensor.F32} {
		env, err := AppendEnvelope(nil, "k", []int{3}, dt, []byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := Read(bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		if h.Version != Version || h.DType != dt {
			t.Fatalf("round-trip header %+v, want dtype %s", h, dt)
		}
	}
	if _, err := AppendEnvelope(nil, "k", nil, tensor.Precision(7), nil); err == nil {
		t.Fatal("invalid dtype written")
	}
	// A v2 envelope whose dtype byte is garbage must fail with a
	// diagnosable dtype error, before the digest check muddies it.
	raw := mustWrite(t, "k", nil, []byte("p"))
	mut := append([]byte(nil), raw...)
	mut[8] = 99 // dtype byte sits right after magic(4)+version(4)
	_, _, err := Read(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("garbage dtype accepted")
	}
	if !strings.Contains(err.Error(), "dtype") {
		t.Fatalf("dtype error not diagnosable: %v", err)
	}
}
