package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn/simd"
	"repro/internal/tensor"
)

// The across-output kernels must reproduce the scalar kernels bit for
// bit: at f64 the frozen Go kernels of kernels.go, at f32 the simd
// Ref order. These tests compare Float64bits/Float32bits over every
// route a matOf call can take — packed AVX units, row-major leftover
// rows, and the whole matrix on the scalar route when AVX is off.

var (
	packedRows = []int{1, 3, 4, 7, 8, 16, 17, 32, 33, 64}
	packedCols = []int{1, 2, 3, 5, 15, 16, 31, 32, 33, 64, 288, 864, 867}
)

// packedInput names one way of filling x and b.
type packedInput struct {
	name string
	fill func(rng *rand.Rand, x, b []float64)
}

// packedInputs covers dense inputs, zero densities on both sides of
// the wide kernels' 1/8 sparse switch, a ReLU-like half-zero vector,
// and IEEE specials (±0, NaN, ±Inf) in x and in the bias.
var packedInputs = []packedInput{
	{"dense", func(rng *rand.Rand, x, b []float64) {}},
	{"zeros-below-eighth", func(rng *rand.Rand, x, b []float64) {
		zeroSome(rng, x, len(x)/8-1) // one zero short of the switch: dense order
	}},
	{"zeros-at-eighth", func(rng *rand.Rand, x, b []float64) {
		zeroSome(rng, x, len(x)/8) // exactly at the switch: sparse order
	}},
	{"zeros-half", func(rng *rand.Rand, x, b []float64) {
		zeroSome(rng, x, len(x)/2)
	}},
	{"specials", func(rng *rand.Rand, x, b []float64) {
		sp := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = sp[rng.Intn(len(sp))]
			}
		}
		for i := range b {
			if rng.Intn(3) == 0 {
				b[i] = sp[rng.Intn(len(sp))]
			}
		}
	}},
}

// zeroSome sets n distinct randomly chosen entries of x to zero,
// alternating +0 and −0 (both count as zero for the sparse switch).
func zeroSome(rng *rand.Rand, x []float64, n int) {
	for k, i := range rng.Perm(len(x))[:max(n, 0)] {
		x[i] = 0
		if k%2 == 1 {
			x[i] = math.Copysign(0, -1)
		}
	}
}

// packedCase draws one rows×cols problem: weights, two inputs and a
// bias, with the named fill applied to both inputs.
func packedCase(rng *rand.Rand, in packedInput, rows, cols int) (w, xa, xb, b []float64) {
	w, xa, b = randKernelCase(rng, rows, cols)
	xb = make([]float64, cols)
	for i := range xb {
		xb[i] = rng.NormFloat64() * 100
	}
	in.fill(rng, xa, b)
	in.fill(rng, xb, b)
	return w, xa, xb, b
}

// withAVX runs f with the packed layout enabled or disabled, skipping
// the enabled run on CPUs without AVX.
func withAVX(t *testing.T, on bool, f func(t *testing.T)) {
	t.Helper()
	name := "scalar"
	if on {
		name = "avx"
	}
	t.Run(name, func(t *testing.T) {
		if on && !simd.HasAVX() {
			t.Skip("CPU lacks AVX")
		}
		saved := useAVX
		useAVX = on
		defer func() { useAVX = saved }()
		f(t)
	})
}

func TestPackedKernelsMatchScalarF64(t *testing.T) {
	for _, on := range []bool{true, false} {
		withAVX(t, on, func(t *testing.T) {
			for _, in := range packedInputs {
				for _, rows := range packedRows {
					for _, cols := range packedCols {
						t.Run(fmt.Sprintf("%s/%dx%d", in.name, rows, cols), func(t *testing.T) {
							rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
							w, xa, xb, b := packedCase(rng, in, rows, cols)
							checkPackedF64(t, w, xa, xb, b, rows, cols)
						})
					}
				}
			}
		})
	}
}

func checkPackedF64(t *testing.T, w, xa, xb, b []float64, rows, cols int) {
	t.Helper()
	m := newMat[float64](w, b, rows, cols)
	if !useAVX && m.packed != 0 {
		t.Fatalf("packed %d rows with AVX off", m.packed)
	}
	got := make([]float64, rows)
	want := make([]float64, rows)
	m.apply(got, xa, false)
	matVecBias(want, xa, w, b, rows, cols)
	sameBits64(t, "apply", got, want)
	m.apply(got, xa, true)
	matVecBias(want, xa, w, b, rows, cols)
	reluClamp(want)
	sameBits64(t, "apply relu", got, want)
	if cols >= 32 {
		return // the pair kernels are narrow-only
	}
	gb := make([]float64, rows)
	wb := make([]float64, rows)
	m.apply2ReLU(got, gb, xa, xb)
	matVecBias2(want, wb, xa, xb, w, b, rows, cols)
	reluClamp(want)
	reluClamp(wb)
	sameBits64(t, "apply2ReLU a", got, want)
	sameBits64(t, "apply2ReLU b", gb, wb)
}

func TestPackedKernelsMatchRefF32(t *testing.T) {
	for _, on := range []bool{true, false} {
		withAVX(t, on, func(t *testing.T) {
			for _, in := range packedInputs {
				for _, rows := range packedRows {
					for _, cols := range packedCols {
						t.Run(fmt.Sprintf("%s/%dx%d", in.name, rows, cols), func(t *testing.T) {
							rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
							w, xa, xb, b := packedCase(rng, in, rows, cols)
							checkPackedF32(t, w, xa, xb, b, rows, cols)
						})
					}
				}
			}
		})
	}
}

func checkPackedF32(t *testing.T, w64, xa64, xb64, b64 []float64, rows, cols int) {
	t.Helper()
	m := newMat[float32](w64, b64, rows, cols)
	w, b := lower32(w64), lower32(b64)
	xa, xb := lower32(xa64), lower32(xb64)
	got := make([]float32, rows)
	want := make([]float32, rows)
	m.apply(got, xa, false)
	simd.MatVecBiasF32Ref(want, xa, w, b, rows, cols)
	sameBits32(t, "apply", got, want)
	m.apply(got, xa, true)
	reluClamp(want)
	sameBits32(t, "apply relu", got, want)
	if cols >= 32 {
		return
	}
	gb := make([]float32, rows)
	wb := make([]float32, rows)
	m.apply2ReLU(got, gb, xa, xb)
	simd.MatVecBias2F32Ref(want, wb, xa, xb, w, b, rows, cols)
	reluClamp(want)
	reluClamp(wb)
	sameBits32(t, "apply2ReLU a", got, want)
	sameBits32(t, "apply2ReLU b", gb, wb)
}

func lower32(s []float64) []float32 {
	out := make([]float32, len(s))
	for i, v := range s {
		out[i] = float32(v)
	}
	return out
}

// sameBits64 and sameBits32 compare Float64bits/Float32bits, except
// that two NaNs match whatever their sign and payload. When two
// different NaNs meet in an add (a NaN input, and Inf−Inf's default
// NaN), x86 returns the first operand's, and the Go compiler is free
// to commute a float add's operands: the scalar kernels compiled with
// -race return the other NaN than the same kernels compiled without
// it, and the Ref's f32 fold (q0+q2)+(q1+q3) compiles as
// (q1+q3)+(q2+q0). The scalar code therefore does not define which NaN
// comes out, only that one does; every non-NaN result must match bit
// for bit.
func sameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for o := range want {
		nan := math.IsNaN(got[o]) && math.IsNaN(want[o])
		if !nan && math.Float64bits(got[o]) != math.Float64bits(want[o]) {
			t.Fatalf("%s out %d: packed %x (%g), scalar %x (%g)", what, o,
				math.Float64bits(got[o]), got[o], math.Float64bits(want[o]), want[o])
		}
	}
}

func sameBits32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for o := range want {
		nan := math.IsNaN(float64(got[o])) && math.IsNaN(float64(want[o]))
		if !nan && math.Float32bits(got[o]) != math.Float32bits(want[o]) {
			t.Fatalf("%s out %d: packed %x (%g), ref %x (%g)", what, o,
				math.Float32bits(got[o]), got[o], math.Float32bits(want[o]), want[o])
		}
	}
}

// TestPackLayout pins simd.Pack's layout: whole units interleaved
// column by column, leftover rows row-major, values rounded to S.
func TestPackLayout(t *testing.T) {
	const rows, cols, unit = 5, 3, 2
	src := make([]float64, rows*cols)
	for i := range src {
		src[i] = float64(i) + 0.25
	}
	dst := make([]float32, rows*cols)
	if got := simd.Pack(dst, src, rows, cols, unit); got != 4 {
		t.Fatalf("packed rows %d, want 4", got)
	}
	// unit 0 = rows 0,1; unit 1 = rows 2,3; row 4 row-major.
	want := []float32{0, 3, 1, 4, 2, 5, 6, 9, 7, 10, 8, 11, 12, 13, 14}
	for i, v := range want {
		if dst[i] != v+0.25 {
			t.Fatalf("dst = %v, want %v (+0.25)", dst, want)
		}
	}
}

// TestStreamerSnapshotsWeights: a streamer owns a copy of the
// network's parameters taken at construction, at both widths, so
// updating the network in place afterwards leaves Score unchanged. A
// streamer built from the updated network gets copies of its own
// rather than the first streamer's shared ones.
func TestStreamerSnapshotsWeights(t *testing.T) {
	t.Run("f64", func(t *testing.T) { streamerSnapshotsWeights[float64](t) })
	t.Run("f32", func(t *testing.T) { streamerSnapshotsWeights[float32](t) })
}

func streamerSnapshotsWeights[S tensor.Scalar](t *testing.T) {
	const window, step, inCh = 40, 20, 9
	rng := rand.New(rand.NewSource(11))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 16, 5, 2, rng)
	st, err := NewStreamerOf[S](net, StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]S, window)
	for i := range rows {
		rows[i] = make([]S, inCh)
		for c := range rows[i] {
			rows[i][c] = S(rng.NormFloat64())
		}
	}
	score := func() float64 {
		st.Reset()
		for _, r := range rows {
			st.Push(r)
		}
		return st.Score()
	}
	before := score()
	for _, p := range net.Params() {
		d := p.W.Data()
		for i := range d {
			d[i] = -d[i] + 0.5
		}
	}
	if got := score(); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("score moved after an in-place weight update: %v then %v", before, got)
	}
	st2, err := NewStreamerOf[S](net, StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	for i, same := range sharedArrays(t, st, st2) {
		if same {
			t.Fatalf("matrix %d: the updated network shares the first streamer's copy", i)
		}
	}
	if got := score(); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("score moved after a second streamer was built from the updated network: %v then %v", before, got)
	}
	st2.Reset()
	for _, r := range rows {
		st2.Push(r)
	}
	if got := st2.Score(); math.Float64bits(got) == math.Float64bits(before) {
		t.Fatalf("the updated network scores %v, as before the update", got)
	}
}

// TestStreamerPackedMatchesScalar drives the paper's 16-filter CNN and
// the 8-filter distilled student through streamers built with the
// packed layout and without it (the latter also pooling through the
// Go fold); every score must agree bit for bit at both widths, and at
// f64 also with the batch path.
func TestStreamerPackedMatchesScalar(t *testing.T) {
	if !simd.HasAVX() {
		t.Skip("CPU lacks AVX: only the scalar route exists")
	}
	for _, filters := range []int{16, 8} {
		t.Run(fmt.Sprintf("filters%d", filters), func(t *testing.T) {
			t.Run("f64", func(t *testing.T) { streamerPackedMatchesScalar[float64](t, filters) })
			t.Run("f32", func(t *testing.T) { streamerPackedMatchesScalar[float32](t, filters) })
		})
	}
}

func streamerPackedMatchesScalar[S tensor.Scalar](t *testing.T, filters int) {
	const window, step, inCh = 40, 20, 9
	rebase := []int{8}
	rng := rand.New(rand.NewSource(int64(filters)))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, filters, 5, 2, rng)
	cfg := StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: rebase}
	build := func(on bool) *StreamerOf[S] {
		saved := useAVX
		useAVX = on
		defer func() { useAVX = saved }()
		st, err := NewStreamerOf[S](net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	packed, scalar := build(true), build(false)
	// The scalar streamer also pools through the Go fold: maxInto
	// reads useAVX per call.
	scalarDo := func(f func()) {
		saved := useAVX
		useAVX = false
		defer func() { useAVX = saved }()
		f()
	}
	var rows [][]float64
	row := make([]S, inCh)
	compared := 0
	for i := 0; i < 6*window; i++ {
		r := pushRandomRow(rng, inCh)
		rows = append(rows, r)
		for c, v := range r {
			row[c] = S(v)
		}
		packed.Push(row)
		scalarDo(func() { scalar.Push(row) })
		if len(rows) < window || (len(rows)-window)%step != 0 {
			continue
		}
		var want float64
		got := packed.Score()
		scalarDo(func() { want = scalar.Score() })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: packed %v, scalar %v", len(rows), got, want)
		}
		if tensor.Is64[S]() {
			if p := net.Predict(assembleRebased(rows, window, inCh, rebase)); math.Float64bits(got) != math.Float64bits(p) {
				t.Fatalf("row %d: packed %v, batch Predict %v", len(rows), got, p)
			}
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no strides compared")
	}
}
