package nn

import (
	"math"
	"math/rand"
	"repro/internal/nn/simd"
	"testing"
)

// The f32 kernel contract mirrors the f64 one (kernels_test.go) with
// one extra obligation: the SSE implementation must match the portable
// reference bit-for-bit, because the reference defines the f32
// summation order and is the implementation on !amd64.

func randF32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// f32Shapes covers both order regimes and this topology's real layer
// shapes: conv rows (16×15), dense1 (64×864), dense2 (32×64), head
// (1×32), plus odd cols around the narrow/wide threshold and the
// 4/16-block remainders.
var f32Shapes = []struct{ rows, cols int }{
	{16, 15}, {64, 864}, {32, 64}, {1, 32}, {1, 31},
	{5, 1}, {3, 3}, {4, 4}, {7, 7}, {8, 13}, {16, 18},
	{9, 33}, {6, 47}, {10, 100}, {2, 35}, {11, 63},
}

func TestMatVecBiasF32AsmMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sh := range f32Shapes {
		x := randF32(rng, sh.cols)
		w := randF32(rng, sh.rows*sh.cols)
		b := randF32(rng, sh.rows)
		got := make([]float32, sh.rows)
		want := make([]float32, sh.rows)
		simd.MatVecBiasF32(got, x, w, b, sh.rows, sh.cols)
		simd.MatVecBiasF32Ref(want, x, w, b, sh.rows, sh.cols)
		for o := range want {
			if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
				t.Fatalf("rows=%d cols=%d out %d: asm %v != ref %v",
					sh.rows, sh.cols, o, got[o], want[o])
			}
		}
	}
}

func TestMatVecBias2F32AsmMatchesRef(t *testing.T) {
	if !simd.HasAVX() {
		t.Skip("the f32 pair kernel is the AVX across-output PackedNarrow2F32")
	}
	rng := rand.New(rand.NewSource(72))
	for _, sh := range f32Shapes {
		if sh.cols >= 32 {
			continue // pair kernel contract: narrow only
		}
		rows := sh.rows - sh.rows%simd.Unit32 + simd.Unit32 // whole units only
		xa := randF32(rng, sh.cols)
		xb := randF32(rng, sh.cols)
		w := randF32(rng, rows*sh.cols)
		b := randF32(rng, rows)
		ga := make([]float32, rows)
		gb := make([]float32, rows)
		wa := make([]float32, rows)
		wb := make([]float32, rows)
		simd.PackedNarrow2F32(ga, gb, xa, xb, packF32(w, rows, sh.cols), b, rows, sh.cols)
		simd.MatVecBias2F32Ref(wa, wb, xa, xb, w, b, rows, sh.cols)
		reluClamp(wa) // the pair kernel clamps in register
		reluClamp(wb)
		for o := range wa {
			if math.Float32bits(ga[o]) != math.Float32bits(wa[o]) ||
				math.Float32bits(gb[o]) != math.Float32bits(wb[o]) {
				t.Fatalf("rows=%d cols=%d out %d: asm (%v,%v) != ref (%v,%v)",
					rows, sh.cols, o, ga[o], gb[o], wa[o], wb[o])
			}
		}
	}
}

// packF32 re-lays a row-major f32 matrix into simd.Pack's layout (the
// values are exact in float64, so the round trip is lossless).
func packF32(w []float32, rows, cols int) []float32 {
	src := make([]float64, len(w))
	for i, v := range w {
		src[i] = float64(v)
	}
	out := make([]float32, len(w))
	simd.Pack(out, src, rows, cols, simd.Unit32)
	return out
}

// TestMatVecBias2F32MatchesSingle is the f32 lane-pairing contract:
// the pair kernel must equal two single-kernel calls bit-for-bit, so
// a conv row scored alone at a stride matches the same row scored as
// half of a pair. The two sides are different assembly: the
// across-output pair (which always ReLU-clamps) against the
// across-column single followed by reluClamp.
func TestMatVecBias2F32MatchesSingle(t *testing.T) {
	if !simd.HasAVX() {
		t.Skip("the f32 pair kernel is the AVX across-output PackedNarrow2F32")
	}
	rng := rand.New(rand.NewSource(73))
	for _, sh := range f32Shapes {
		if sh.cols >= 32 {
			continue
		}
		rows := sh.rows - sh.rows%simd.Unit32 + simd.Unit32
		xa := randF32(rng, sh.cols)
		xb := randF32(rng, sh.cols)
		w := randF32(rng, rows*sh.cols)
		b := randF32(rng, rows)
		pa := make([]float32, rows)
		pb := make([]float32, rows)
		sa := make([]float32, rows)
		sb := make([]float32, rows)
		simd.PackedNarrow2F32(pa, pb, xa, xb, packF32(w, rows, sh.cols), b, rows, sh.cols)
		simd.MatVecBiasF32(sa, xa, w, b, rows, sh.cols)
		simd.MatVecBiasF32(sb, xb, w, b, rows, sh.cols)
		reluClamp(sa) // the pair kernel clamps in register
		reluClamp(sb)
		for o := range sa {
			if math.Float32bits(pa[o]) != math.Float32bits(sa[o]) ||
				math.Float32bits(pb[o]) != math.Float32bits(sb[o]) {
				t.Fatalf("rows=%d cols=%d out %d: pair (%v,%v) != single (%v,%v)",
					rows, sh.cols, o, pa[o], pb[o], sa[o], sb[o])
			}
		}
	}
}

// TestMatVecBiasF32LaneUniform: every output must be a fixed function
// of (weight row, x, bias) — computing row o inside a full 4-lane
// block must equal computing it alone with rows=1.
func TestMatVecBiasF32LaneUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, sh := range f32Shapes {
		x := randF32(rng, sh.cols)
		w := randF32(rng, sh.rows*sh.cols)
		b := randF32(rng, sh.rows)
		full := make([]float32, sh.rows)
		simd.MatVecBiasF32(full, x, w, b, sh.rows, sh.cols)
		one := make([]float32, 1)
		for o := 0; o < sh.rows; o++ {
			simd.MatVecBiasF32(one, x, w[o*sh.cols:(o+1)*sh.cols], b[o:o+1], 1, sh.cols)
			if math.Float32bits(one[0]) != math.Float32bits(full[o]) {
				t.Fatalf("rows=%d cols=%d out %d: alone %v != in-block %v",
					sh.rows, sh.cols, o, one[0], full[o])
			}
		}
	}
}

// TestMatVecBiasF32MatchesNaive bounds the f32 order against a
// float64 naive accumulation: the blocked f32 sum may differ from the
// f64 reference only by rounding noise scaled to the magnitude sum.
func TestMatVecBiasF32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, sh := range f32Shapes {
		x := randF32(rng, sh.cols)
		w := randF32(rng, sh.rows*sh.cols)
		b := randF32(rng, sh.rows)
		got := make([]float32, sh.rows)
		simd.MatVecBiasF32(got, x, w, b, sh.rows, sh.cols)
		for o := 0; o < sh.rows; o++ {
			naive := float64(b[o])
			mag := math.Abs(float64(b[o]))
			for i := 0; i < sh.cols; i++ {
				p := float64(w[o*sh.cols+i]) * float64(x[i])
				naive += p
				mag += math.Abs(p)
			}
			tol := 1e-6 * (mag + 1)
			if math.Abs(float64(got[o])-naive) > tol {
				t.Fatalf("rows=%d cols=%d out %d: f32 %v vs f64 naive %v (tol %g)",
					sh.rows, sh.cols, o, got[o], naive, tol)
			}
		}
	}
}

// TestMatVecBiasF32GenericDispatch: the generic entry kernel at
// S=float32 must route to the f32 path, bit-equal to the reference.
// (The clamp that follows it on the f32 row-major route, NaN included,
// is TestPackedClampBitExact's.)
func TestMatVecBiasF32GenericDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, sh := range []struct{ rows, cols int }{{16, 15}, {64, 864}} {
		x := randF32(rng, sh.cols)
		w := randF32(rng, sh.rows*sh.cols)
		b := randF32(rng, sh.rows)
		got := make([]float32, sh.rows)
		want := make([]float32, sh.rows)
		matVecBias[float32](got, x, w, b, sh.rows, sh.cols)
		simd.MatVecBiasF32Ref(want, x, w, b, sh.rows, sh.cols)
		for o := range want {
			if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
				t.Fatalf("matVecBias[float32] rows=%d cols=%d out %d: %v != %v",
					sh.rows, sh.cols, o, got[o], want[o])
			}
		}
	}
}
