package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// The conv-row epilogue — the ReLU clamp inside the packed kernels'
// stores and the running max-pool fold — must reproduce the scalar
// rules exactly: v ≤ 0 becomes +0 (−0 included) and NaN keeps its
// sign and payload; the fold keeps dst unless src is strictly greater.
// Unlike sameBits64/32 these checks forgive no NaN: each sum below
// meets at most one NaN, so its payload is defined.

// epilogueSpecials64 are the values the epilogue must carry bit for
// bit: both zeros, negative and positive subnormals, ±Inf, quiet NaNs
// with distinct payloads with and without the sign bit, one signalling
// NaN (quieted by the kernels' add, as by the scalar add), and a few
// ordinary values of both signs.
var epilogueSpecials64 = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // −0
	0x8000000000000001, // −smallest subnormal
	0x800fffffffffffff, // −largest subnormal
	0x0000000000000001, // +smallest subnormal
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // −Inf
	0x7ff8000000000001, // NaN, payload 1
	0xfff8000000000123, // −NaN, payload 0x123
	0x7ffc00000000abcd, // NaN, payload 0x40000000abcd
	0xfff4000000000007, // −sNaN
	0x3ff8000000000000, // 1.5
	0xc004000000000000, // −2.5
	0x8010000000000000, // −smallest normal
}

var epilogueSpecials32 = []uint32{
	0x00000000, 0x80000000, 0x80000001, 0x807fffff, 0x00000001,
	0x7f800000, 0xff800000, 0x7fc00001, 0xffc00123, 0x7fe0abcd,
	0xffa00007, 0x3fc00000, 0xc0200000, 0x80800000,
}

func specials64() []float64 {
	out := make([]float64, len(epilogueSpecials64))
	for i, b := range epilogueSpecials64 {
		out[i] = math.Float64frombits(b)
	}
	return out
}

func specials32() []float32 {
	out := make([]float32, len(epilogueSpecials32))
	for i, b := range epilogueSpecials32 {
		out[i] = math.Float32frombits(b)
	}
	return out
}

// exactBits compares two rows bit for bit, NaN payloads included.
func exactBits[S tensor.Scalar](t *testing.T, what string, got, want []S) {
	t.Helper()
	for i := range want {
		g, w := scalarBits(got[i]), scalarBits(want[i])
		if g != w {
			t.Fatalf("%s [%d]: got %#x (%v), want %#x (%v)", what, i, g, got[i], w, want[i])
		}
	}
}

func scalarBits[S tensor.Scalar](v S) uint64 {
	if tensor.Is64[S]() {
		return math.Float64bits(float64(v))
	}
	return uint64(math.Float32bits(float32(v)))
}

// clampCase builds a rows×cols matrix whose pre-clamp outputs are the
// special values themselves: every weight is −0 and x is 1 (or, for
// the f64 sparse route, 1 with a quarter of its entries zero), so each
// product is −0 and each output is its bias plus −0s — exact for every
// bias, −0 included, at f64. The f32 order starts its sums at +0, so
// there −0 biases leave the kernel as +0 before the clamp; the
// comparison against the Ref order covers that too.
func clampCase(rows, cols int, sparse bool, specials []float64) (w, x, b []float64) {
	w = make([]float64, rows*cols)
	for i := range w {
		w[i] = math.Copysign(0, -1)
	}
	x = make([]float64, cols)
	for i := range x {
		x[i] = 1
		if sparse && i%4 == 0 {
			x[i] = 0
		}
	}
	b = make([]float64, rows)
	for i := range b {
		b[i] = specials[i%len(specials)]
	}
	return w, x, b
}

// TestPackedClampBitExact runs every special through each kernel route
// with the clamp on, AVX on and off, at both widths: the packed units
// clamp in register, the leftover rows (rows is never a whole number
// of units) in Go, and both must equal the scalar kernel followed by
// reluClamp, bit for bit.
func TestPackedClampBitExact(t *testing.T) {
	type route struct {
		name   string
		cols   int
		sparse bool
	}
	routes := []route{{"narrow", 7, false}, {"narrow-even", 16, false}, {"wide", 40, false}, {"sparse", 40, true}}
	for _, on := range []bool{true, false} {
		withAVX(t, on, func(t *testing.T) {
			for _, r := range routes {
				for _, rows := range []int{simd.Unit64 + 5, 2*simd.Unit64 + 3, simd.Unit32 + 3} {
					t.Run(fmt.Sprintf("%s/rows%d", r.name, rows), func(t *testing.T) {
						w, x, b := clampCase(rows, r.cols, r.sparse, specials64())
						clampF64(t, w, x, b, rows, r.cols)
						w, x, b = clampCase(rows, r.cols, r.sparse, widen32(specials32()))
						clampF32(t, w, x, b, rows, r.cols)
					})
				}
			}
		})
	}
}

func widen32(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, f := range v {
		out[i] = float64(f) // exact, NaN payloads included
	}
	return out
}

func clampF64(t *testing.T, w, x, b []float64, rows, cols int) {
	t.Helper()
	m := newMat[float64](w, b, rows, cols)
	got := make([]float64, rows)
	want := make([]float64, rows)
	m.apply(got, x, true)
	matVecBias(want, x, w, b, rows, cols)
	reluClamp(want)
	exactBits(t, "f64 apply", got, want)
	m.apply(got, x, false)
	matVecBias(want, x, w, b, rows, cols)
	exactBits(t, "f64 apply no relu", got, want)
	if cols >= 32 {
		return
	}
	gb := make([]float64, rows)
	wb := make([]float64, rows)
	m.apply2ReLU(got, gb, x, x)
	matVecBias2(want, wb, x, x, w, b, rows, cols)
	reluClamp(want)
	reluClamp(wb)
	exactBits(t, "f64 apply2ReLU a", got, want)
	exactBits(t, "f64 apply2ReLU b", gb, wb)
}

func clampF32(t *testing.T, w64, x64, b64 []float64, rows, cols int) {
	t.Helper()
	m := newMat[float32](w64, b64, rows, cols)
	w, x, b := lower32(w64), lower32(x64), lower32(b64)
	got := make([]float32, rows)
	want := make([]float32, rows)
	m.apply(got, x, true)
	simd.MatVecBiasF32Ref(want, x, w, b, rows, cols)
	reluClamp(want)
	exactBits(t, "f32 apply", got, want)
	m.apply(got, x, false)
	simd.MatVecBiasF32Ref(want, x, w, b, rows, cols)
	exactBits(t, "f32 apply no relu", got, want)
	if cols >= 32 {
		return
	}
	gb := make([]float32, rows)
	wb := make([]float32, rows)
	m.apply2ReLU(got, gb, x, x)
	simd.MatVecBias2F32Ref(want, wb, x, x, w, b, rows, cols)
	reluClamp(want)
	reluClamp(wb)
	exactBits(t, "f32 apply2ReLU a", got, want)
	exactBits(t, "f32 apply2ReLU b", gb, wb)
}

// TestClampOutcomes pins what the clamp does to each special, so the
// comparison above cannot pass with both sides wrong: v ≤ 0 (−0,
// negative subnormals, −Inf) becomes +0, NaN keeps its exact bits
// (quieted), everything positive passes through.
func TestClampOutcomes(t *testing.T) {
	for _, on := range []bool{true, false} {
		withAVX(t, on, func(t *testing.T) {
			rows := simd.Unit64 + 5
			w, x, b := clampCase(rows, 3, false, specials64())
			got := make([]float64, rows)
			m := newMat[float64](w, b, rows, 3)
			m.apply(got, x, true)
			for i, v := range got {
				in := b[i]
				var want uint64
				switch {
				case math.IsNaN(in):
					want = math.Float64bits(in) | 1<<51 // quiet bit
				case in > 0:
					want = math.Float64bits(in)
				}
				if math.Float64bits(v) != want {
					t.Fatalf("clamp(%#x) = %#x, want %#x", math.Float64bits(in), math.Float64bits(v), want)
				}
			}
		})
	}
}

// TestMaxIntoBitExact folds every special into every special — NaN in
// dst and in src, +0 into −0 and −0 into +0 — at both widths, AVX on
// and off, over lengths that are not lane multiples, and requires the
// strict `src > dst` rule bit for bit, folding only len(dst) entries
// of a longer src. At f64 the result must also be
// what MaxPool1D.Forward, the batch oracle, pools from the rows
// [dst; src].
func TestMaxIntoBitExact(t *testing.T) {
	for _, on := range []bool{true, false} {
		withAVX(t, on, func(t *testing.T) {
			t.Run("f64", func(t *testing.T) { maxIntoBitExact(t, specials64()) })
			t.Run("f32", func(t *testing.T) { maxIntoBitExact(t, specials32()) })
		})
	}
}

func maxIntoBitExact[S tensor.Scalar](t *testing.T, sp []S) {
	var dst0, src []S
	for _, r := range sp {
		for _, v := range sp {
			dst0 = append(dst0, r)
			src = append(src, v)
		}
	}
	// 14 × 14 pairs less one: 195, not a multiple of any lane count.
	dst0, src = dst0[:len(dst0)-1], src[:len(src)-1]
	for _, n := range []int{0, 1, 3, 5, 7, 9, 15, 17, len(dst0)} {
		got := append([]S(nil), dst0[:n]...)
		want := append([]S(nil), dst0[:n]...)
		maxInto(got, src[:min(n+3, len(src))]) // only len(dst) folds
		for i, v := range src[:n] {
			if v > want[i] {
				want[i] = v
			}
		}
		exactBits(t, fmt.Sprintf("maxInto n=%d", n), got, want)
		if tensor.Is64[S]() && n > 0 {
			in := tensor.New(2, n)
			copy(in.Data()[:n], f64s(dst0[:n]))
			copy(in.Data()[n:], f64s(src[:n]))
			pooled := NewMaxPool1D(2).Forward(in, false).Data()
			exactBits(t, fmt.Sprintf("MaxPool1D n=%d", n), f64s(got), pooled)
		}
	}
}
