// Package artifact frames every model image this repository writes to
// disk in a verified envelope: a fixed magic, a format version, a kind
// tag (which model family the payload encodes), the input shape the
// model expects, the payload itself, and a SHA-256 digest over
// everything that precedes it. A deployable fall-detection model is a
// safety-critical artifact — a truncated copy, a bit flip in transit
// or a file of the wrong kind must fail loudly at load time, never
// reach the airbag controller as a silently-misfiring network.
//
// The envelope is decoded with explicit bounds checks before any
// allocation is sized from untrusted input, and the digest is verified
// before the payload is handed to any decoder, so arbitrary bytes can
// never drive gob (or any other payload codec) with corrupted input.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// Magic opens every envelope; Version is the current format revision.
//
// Version history:
//
//	1 — magic | version | kind | shape | payload | sha256. Everything a
//	    version-1 writer produced held float64 state, so readers treat
//	    these as tensor.F64.
//	2 — a dtype byte follows the version, naming the scalar width of
//	    the payload's numeric state. Version-1 envelopes still load.
const (
	Magic   = "FDMA" // Fall-Detection Model Artifact
	Version = 2
)

// Limits keep a corrupt or hostile length field from driving a huge
// allocation: an envelope is rejected before any payload-sized buffer
// is allocated beyond these bounds.
const (
	// MaxBytes caps the whole envelope. The paper's deployable CNN is
	// ~67 KiB quantized and <1 MiB in float64; 64 MiB leaves room for
	// any model this repository can express.
	MaxBytes = 64 << 20
	// MaxKindLen caps the kind tag.
	MaxKindLen = 128
	// MaxShapeDims caps the input-shape rank.
	MaxShapeDims = 8
	// MaxShapeDim caps any single input dimension.
	MaxShapeDim = 1 << 24
)

// Header identifies a decoded envelope.
type Header struct {
	Version uint32
	// DType is the scalar width of the payload's numeric state.
	// Version-1 envelopes predate the field and always decode as
	// tensor.F64.
	DType tensor.Precision
	// Kind tags the payload codec/family, e.g. "qnet-int8" or
	// "nn-float64".
	Kind string
	// Shape is the input shape the model expects ([T, C] for the
	// paper's windows); empty when the writer did not declare one.
	Shape []int
}

// digestSize is the SHA-256 trailer length.
const digestSize = sha256.Size

// Write frames a float64 payload in a verified envelope. Layout (all
// integers little-endian):
//
//	magic[4] | version u32 | dtype u8 | kindLen u16 | kind |
//	shapeLen u16 | dims i32... | payloadLen u32 | payload | sha256[32]
//
// The digest covers every byte before it. Every payload written
// through an io.Writer (network weights, quantized images, detector
// bundles) is float64 state; lowered pipeline state goes through
// AppendEnvelope with its own width.
func Write(w io.Writer, kind string, shape []int, payload []byte) error {
	env, err := AppendEnvelope(nil, kind, shape, tensor.F64, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(env)
	return err
}

// AppendEnvelope appends the framed envelope, stamped with payload
// width dt, to dst and returns the extended slice — the
// allocation-free form of Write for callers that snapshot
// periodically and reuse a buffer (serve sessions checkpoint every
// stride; a fresh ~3 KiB envelope per checkpoint was the last
// steady-state allocation on that path). dst may be nil.
func AppendEnvelope(dst []byte, kind string, shape []int, dt tensor.Precision, payload []byte) ([]byte, error) {
	if !dt.Valid() {
		return dst, fmt.Errorf("artifact: cannot write %s envelope", dt)
	}
	if len(kind) == 0 || len(kind) > MaxKindLen {
		return dst, fmt.Errorf("artifact: kind length %d outside (0, %d]", len(kind), MaxKindLen)
	}
	if len(shape) > MaxShapeDims {
		return dst, fmt.Errorf("artifact: shape rank %d exceeds %d", len(shape), MaxShapeDims)
	}
	for _, d := range shape {
		if d <= 0 || d > MaxShapeDim {
			return dst, fmt.Errorf("artifact: shape dimension %d outside (0, %d]", d, MaxShapeDim)
		}
	}
	need := len(Magic) + 4 + 1 + 2 + len(kind) + 2 + 4*len(shape) + 4 + len(payload) + digestSize
	if need > MaxBytes {
		return dst, fmt.Errorf("artifact: envelope of %d bytes exceeds MaxBytes %d", need, MaxBytes)
	}
	start := len(dst)
	le := binary.LittleEndian
	dst = append(dst, Magic...)
	dst = le.AppendUint32(dst, Version)
	dst = append(dst, byte(dt))
	dst = le.AppendUint16(dst, uint16(len(kind)))
	dst = append(dst, kind...)
	dst = le.AppendUint16(dst, uint16(len(shape)))
	for _, d := range shape {
		dst = le.AppendUint32(dst, uint32(d))
	}
	dst = le.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	sum := sha256.Sum256(dst[start:])
	return append(dst, sum[:]...), nil
}

// Read decodes and verifies an envelope: magic, version, bounds on
// every length field, and the SHA-256 digest. Only after the digest
// matches is the payload returned — any single truncation or bit flip
// anywhere in the stream yields a non-nil error and a nil payload.
func Read(r io.Reader) (Header, []byte, error) {
	var h Header
	raw, err := readEnvelope(r)
	if err != nil {
		return h, nil, fmt.Errorf("artifact: reading envelope: %w", err)
	}
	if len(raw) > MaxBytes {
		return h, nil, fmt.Errorf("artifact: envelope exceeds MaxBytes %d", MaxBytes)
	}
	le := binary.LittleEndian
	pos := 0
	need := func(n int, what string) error {
		if n < 0 || len(raw)-pos < n {
			return fmt.Errorf("artifact: truncated envelope: need %d bytes for %s, have %d", n, what, len(raw)-pos)
		}
		return nil
	}
	if err := need(len(Magic), "magic"); err != nil {
		return h, nil, err
	}
	if string(raw[:len(Magic)]) != Magic {
		return h, nil, fmt.Errorf("artifact: bad magic %q (not a model artifact)", raw[:len(Magic)])
	}
	pos += len(Magic)
	if err := need(4, "version"); err != nil {
		return h, nil, err
	}
	h.Version = le.Uint32(raw[pos:])
	pos += 4
	if h.Version == 0 || h.Version > Version {
		return h, nil, fmt.Errorf("artifact: unsupported format version %d (this build reads ≤ %d)", h.Version, Version)
	}
	h.DType = tensor.F64
	if h.Version >= 2 {
		if err := need(1, "dtype"); err != nil {
			return h, nil, err
		}
		h.DType = tensor.Precision(raw[pos])
		pos++
		if !h.DType.Valid() {
			return h, nil, fmt.Errorf("artifact: unknown payload dtype %d", uint8(h.DType))
		}
	}
	if err := need(2, "kind length"); err != nil {
		return h, nil, err
	}
	kindLen := int(le.Uint16(raw[pos:]))
	pos += 2
	if kindLen == 0 || kindLen > MaxKindLen {
		return h, nil, fmt.Errorf("artifact: kind length %d outside (0, %d]", kindLen, MaxKindLen)
	}
	if err := need(kindLen, "kind"); err != nil {
		return h, nil, err
	}
	h.Kind = string(raw[pos : pos+kindLen])
	pos += kindLen
	if err := need(2, "shape rank"); err != nil {
		return h, nil, err
	}
	rank := int(le.Uint16(raw[pos:]))
	pos += 2
	if rank > MaxShapeDims {
		return h, nil, fmt.Errorf("artifact: shape rank %d exceeds %d", rank, MaxShapeDims)
	}
	if err := need(4*rank, "shape"); err != nil {
		return h, nil, err
	}
	h.Shape = make([]int, rank)
	for i := range h.Shape {
		d := int(le.Uint32(raw[pos:]))
		pos += 4
		if d <= 0 || d > MaxShapeDim {
			return h, nil, fmt.Errorf("artifact: shape dimension %d outside (0, %d]", d, MaxShapeDim)
		}
		h.Shape[i] = d
	}
	if err := need(4, "payload length"); err != nil {
		return h, nil, err
	}
	payloadLen := int(le.Uint32(raw[pos:]))
	pos += 4
	if err := need(payloadLen+digestSize, "payload and digest"); err != nil {
		return h, nil, err
	}
	if len(raw)-pos != payloadLen+digestSize {
		return h, nil, fmt.Errorf("artifact: %d trailing bytes after digest", len(raw)-pos-payloadLen-digestSize)
	}
	payload := raw[pos : pos+payloadLen]
	pos += payloadLen
	want := raw[pos:]
	sum := sha256.Sum256(raw[:pos])
	if !bytes.Equal(sum[:], want) {
		return h, nil, fmt.Errorf("artifact: SHA-256 digest mismatch (corrupt or tampered image)")
	}
	// raw never leaves Read, so the payload is handed out in place; the
	// capped slice keeps an append by the caller off the digest bytes.
	return h, payload[:payloadLen:payloadLen], nil
}

// readEnvelope reads r to EOF, stopping one byte past MaxBytes so the
// caller can reject an oversized stream. A reader that reports its
// remaining length (bytes.Reader, bytes.Buffer, strings.Reader) gets
// one buffer of that size plus the byte the final EOF read needs,
// instead of io.ReadAll's doubling from 512 bytes. Len only sizes the
// first buffer: a reader whose Len is wrong is still read exactly, to
// EOF or to the limit.
func readEnvelope(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		size = min(max(l.Len(), 0), MaxBytes) + 1
	}
	buf := make([]byte, 0, size)
	lr := io.LimitReader(r, MaxBytes+1)
	for {
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// CheckKind is a load-time helper: it rejects an envelope whose kind
// tag differs from what the caller expects, naming both.
func CheckKind(h Header, want string) error {
	if h.Kind != want {
		return fmt.Errorf("artifact: image holds %q, loader expects %q", h.Kind, want)
	}
	return nil
}
