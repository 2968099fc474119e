package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
)

// State codec: tiny append/consume helpers for the runtime-state
// snapshots the serving layer takes of a live detector pipeline (DESIGN
// §11), and for the weight images of package nn. The encoding is
// deliberately dumb — fixed-width little-endian fields in declaration
// order, no tags, no reflection — because the decoder on the other
// side knows the layout (the same build of the same struct, or the
// live network whose parameters the weights fill) and the envelope
// (Write/Read) already carries versioning and a SHA-256 digest. The
// StateReader keeps a sticky error so decode call sites stay linear:
// consume every field, check Err() once at the end; a truncated or
// oversized payload surfaces as an error, never a panic or a
// partially-applied restore.

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendInt appends a signed integer as its two's-complement uint64.
func AppendInt(dst []byte, v int) []byte {
	return AppendUint64(dst, uint64(int64(v)))
}

// AppendFloat appends the IEEE-754 bit pattern of v.
func AppendFloat(dst []byte, v float64) []byte {
	return AppendUint64(dst, math.Float64bits(v))
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// StateReader consumes fields appended by the Append helpers. The
// first malformed read latches an error; every later read returns the
// zero value, so a decode sequence can run to completion and report
// the single sticky error.
type StateReader struct {
	data []byte
	pos  int
	err  error
}

// NewStateReader wraps a snapshot payload for decoding.
func NewStateReader(data []byte) *StateReader {
	return &StateReader{data: data}
}

func (r *StateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Uint64 consumes one little-endian uint64.
func (r *StateReader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.pos < 8 {
		r.fail("artifact: truncated state: need 8 bytes at offset %d, have %d", r.pos, len(r.data)-r.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

// Bytes consumes the next n bytes and returns them in place, capped so
// an append by the caller cannot reach the bytes after them. n is
// checked against what is left before anything is sliced, so a length
// read from the payload can drive neither an allocation nor a panic.
func (r *StateReader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.pos < n {
		r.fail("artifact: truncated state: need %d bytes at offset %d, have %d", n, r.pos, len(r.data)-r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Int consumes a signed integer written by AppendInt.
func (r *StateReader) Int() int { return int(int64(r.Uint64())) }

// Float consumes an IEEE-754 float64.
func (r *StateReader) Float() float64 { return math.Float64frombits(r.Uint64()) }

// Bool consumes one byte; any value other than 0 or 1 is an error.
func (r *StateReader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.data)-r.pos < 1 {
		r.fail("artifact: truncated state: need 1 byte at offset %d", r.pos)
		return false
	}
	b := r.data[r.pos]
	r.pos++
	if b > 1 {
		r.fail("artifact: bad bool byte %d at offset %d", b, r.pos-1)
		return false
	}
	return b == 1
}

// Err returns the sticky decode error, if any.
func (r *StateReader) Err() error { return r.err }

// Close verifies the payload was consumed exactly: trailing bytes mean
// the writer and reader disagree about the state layout.
func (r *StateReader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("artifact: %d unconsumed state bytes (layout mismatch)", len(r.data)-r.pos)
	}
	return nil
}
