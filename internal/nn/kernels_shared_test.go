package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/nn/simd"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Streamers built from bit-identical parameters read one interned
// weight copy (sharedMat). These tests pin when copies are shared and
// when they must not be, and that sharing never changes a score.

var (
	sharedCols = [][2]int{{0, 3}, {3, 6}, {6, 9}}
	sharedCfg  = StreamConfig{InCh: 9, Window: 40, Step: 20, RebaseCols: []int{8}}
)

// sharedNets returns n separately loaded copies of one CNN with the
// given conv width (16 for the paper's CNN, 8 for the distilled
// student): each copy starts from its own random initialisation and
// then loads the first network's saved parameters, as every session of
// a server loads the same model file.
func sharedNets(t *testing.T, filters, n int) []*Network {
	t.Helper()
	build := func(seed int64) *Network {
		return streamTestNet(t, sharedCfg.Window, sharedCols, filters, 5, 2, rand.New(rand.NewSource(seed)))
	}
	var img bytes.Buffer
	if err := build(int64(filters)).Save(&img); err != nil {
		t.Fatal(err)
	}
	nets := make([]*Network, n)
	for i := range nets {
		nets[i] = build(int64(100 + i))
		if err := nets[i].Load(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	return nets
}

// streamerMats lists a streamer's matrices: each branch's conv, then
// each dense head step.
func streamerMats[S tensor.Scalar](st *StreamerOf[S]) []*matOf[S] {
	var ms []*matOf[S]
	for _, b := range st.branches {
		ms = append(ms, &b.conv)
	}
	for i := range st.head {
		if st.head[i].op == headDense {
			ms = append(ms, &st.head[i].mat)
		}
	}
	return ms
}

// sharedArrays reports, matrix by matrix, whether a and b read the
// same weight and bias arrays.
func sharedArrays[S tensor.Scalar](t *testing.T, a, b *StreamerOf[S]) []bool {
	t.Helper()
	ma, mb := streamerMats(a), streamerMats(b)
	if len(ma) != len(mb) || len(ma) == 0 {
		t.Fatalf("streamers hold %d and %d matrices", len(ma), len(mb))
	}
	same := make([]bool, len(ma))
	for i := range ma {
		w, bias := &ma[i].w[0] == &mb[i].w[0], &ma[i].b[0] == &mb[i].b[0]
		if w != bias {
			t.Fatalf("matrix %d: weights shared %v but bias shared %v", i, w, bias)
		}
		same[i] = w
	}
	return same
}

func newStreamers[S tensor.Scalar](t *testing.T, nets []*Network) []*StreamerOf[S] {
	t.Helper()
	sts := make([]*StreamerOf[S], len(nets))
	for i, net := range nets {
		st, err := NewStreamerOf[S](net, sharedCfg)
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = st
	}
	return sts
}

// scoreAlike streams random rows through every streamer and requires
// bit-identical scores at each stride, and at f64 also equality with
// the batch path of net.
func scoreAlike[S tensor.Scalar](t *testing.T, sts []*StreamerOf[S], net *Network) {
	t.Helper()
	window, step, inCh := sharedCfg.Window, sharedCfg.Step, sharedCfg.InCh
	rng := rand.New(rand.NewSource(3))
	var rows [][]float64
	row := make([]S, inCh)
	for i := 0; i < 4*window; i++ {
		r := pushRandomRow(rng, inCh)
		rows = append(rows, r)
		for c, v := range r {
			row[c] = S(v)
		}
		for _, st := range sts {
			st.Push(row)
		}
		if len(rows) < window || (len(rows)-window)%step != 0 {
			continue
		}
		want := sts[0].Score()
		for j, st := range sts[1:] {
			if got := st.Score(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d: streamer %d scores %v, streamer 0 %v", len(rows), j+1, got, want)
			}
		}
		if tensor.Is64[S]() {
			if p := net.Predict(assembleRebased(rows, window, inCh, sharedCfg.RebaseCols)); math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("row %d: streamed %v, batch Predict %v", len(rows), want, p)
			}
		}
	}
}

// TestStreamersShareWeights: streamers built from separately loaded
// copies of the paper's CNN and of the distilled student read the same
// arrays for every matrix, and still score exactly as the batch path.
func TestStreamersShareWeights(t *testing.T) {
	for _, filters := range []int{16, 8} {
		t.Run(fmt.Sprintf("filters%d", filters), func(t *testing.T) {
			t.Run("f64", func(t *testing.T) { streamersShareWeights[float64](t, filters) })
			t.Run("f32", func(t *testing.T) { streamersShareWeights[float32](t, filters) })
		})
	}
}

func streamersShareWeights[S tensor.Scalar](t *testing.T, filters int) {
	nets := sharedNets(t, filters, 2)
	sts := newStreamers[S](t, nets)
	for i, same := range sharedArrays(t, sts[0], sts[1]) {
		if !same {
			t.Fatalf("matrix %d: loaded copies of one model got separate weight copies", i)
		}
	}
	scoreAlike(t, sts, nets[0])
}

// TestSharedMatBitExact: a copy is shared only with bit-identical
// parameters. One flipped bit — a mantissa bit, +0 against −0, a NaN
// payload — gives a copy of its own holding exactly the new bits, at
// both widths, packed and row-major. simd.PackEqual, the check that
// guards against hash collisions, must tell each variant apart too.
func TestSharedMatBitExact(t *testing.T) {
	avx := []bool{false}
	if simd.HasAVX() {
		avx = append(avx, true)
	}
	for _, on := range avx {
		t.Run(fmt.Sprintf("avx=%v", on), func(t *testing.T) {
			saved := useAVX
			useAVX = on
			defer func() { useAVX = saved }()
			t.Run("f64", func(t *testing.T) { sharedMatBitExact[float64](t) })
			t.Run("f32", func(t *testing.T) { sharedMatBitExact[float32](t) })
		})
	}
}

func sharedMatBitExact[S tensor.Scalar](t *testing.T) {
	const rows, cols = 19, 20 // one whole unit at either width plus row-major leftovers
	rng := rand.New(rand.NewSource(7))
	w, _, b := randKernelCase(rng, rows, cols)
	w[3] = 0
	b[2] = math.Float64frombits(0x7ff8_0000_0000_0001)
	// Each flip survives the rounding to float32: mantissa bit 40 lies
	// in the 23 bits float32 keeps, and so does NaN payload bit 45.
	flips := []struct {
		name string
		flip func(w, b []float64)
	}{
		{"mantissa", func(w, b []float64) { w[5*cols+7] = math.Float64frombits(math.Float64bits(w[5*cols+7]) ^ 1<<40) }},
		{"negative zero", func(w, b []float64) { w[3] = math.Copysign(0, -1) }},
		{"leftover row", func(w, b []float64) { w[18*cols+1] = -w[18*cols+1] }},
		{"nan payload", func(w, b []float64) { b[2] = math.Float64frombits(0x7ff8_2000_0000_0001) }},
	}
	unit := packUnit[S](cols)
	base := newMat[S](w, b, rows, cols)
	twin := newMat[S](append([]float64(nil), w...), append([]float64(nil), b...), rows, cols)
	if &twin.w[0] != &base.w[0] || &twin.b[0] != &base.b[0] {
		t.Fatal("bit-identical parameters got separate copies")
	}
	for _, f := range flips {
		fw, fb := append([]float64(nil), w...), append([]float64(nil), b...)
		f.flip(fw, fb)
		m := newMat[S](fw, fb, rows, cols)
		if &m.w[0] == &base.w[0] || &m.b[0] == &base.b[0] {
			t.Fatalf("%s: a flipped bit shares the original copy", f.name)
		}
		if !simd.PackEqual(m.w, fw, rows, cols, unit) || !simd.PackEqual(m.b, fb, rows, 1, 0) {
			t.Fatalf("%s: the new copy does not hold the new bits", f.name)
		}
		if simd.PackEqual(base.w, fw, rows, cols, unit) && simd.PackEqual(base.b, fb, rows, 1, 0) {
			t.Fatalf("%s: PackEqual matches the original copy against the flipped source", f.name)
		}
	}
}

// TestPackedAndRowMajorNeverAlias: streamers of one network built with
// the packed layout and without it never read the same array for a
// matrix whose layouts differ.
func TestPackedAndRowMajorNeverAlias(t *testing.T) {
	if !simd.HasAVX() {
		t.Skip("CPU lacks AVX: only the row-major layout exists")
	}
	t.Run("f64", func(t *testing.T) { packedAndRowMajorNeverAlias[float64](t) })
	t.Run("f32", func(t *testing.T) { packedAndRowMajorNeverAlias[float32](t) })
}

func packedAndRowMajorNeverAlias[S tensor.Scalar](t *testing.T) {
	net := sharedNets(t, 16, 1)[0]
	build := func(on bool) *StreamerOf[S] {
		saved := useAVX
		useAVX = on
		defer func() { useAVX = saved }()
		return newStreamers[S](t, []*Network{net})[0]
	}
	packed, rowMajor := build(true), build(false)
	mp, mr := streamerMats(packed), streamerMats(rowMajor)
	differ := 0
	for i, same := range sharedArrays(t, packed, rowMajor) {
		if mp[i].packed == mr[i].packed {
			continue
		}
		differ++
		if same {
			t.Fatalf("matrix %d: the packed and row-major layouts share one array", i)
		}
	}
	if differ == 0 {
		t.Fatal("no matrix was packed")
	}
	scoreAlike(t, []*StreamerOf[S]{packed, rowMajor}, net)
}

// TestSharedMatsCollected: the table holds its copies weakly, so once
// every streamer is unreachable the collector empties it.
func TestSharedMatsCollected(t *testing.T) {
	func() {
		nets := sharedNets(t, 16, 2)
		a, b := newStreamers[float64](t, nets), newStreamers[float32](t, nets)
		if tableLen() == 0 {
			t.Fatal("building streamers interned nothing")
		}
		runtime.KeepAlive(a)
		runtime.KeepAlive(b)
	}()
	for i := 0; i < 50 && tableLen() > 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
	}
	if n := tableLen(); n != 0 {
		t.Fatalf("%d table keys outlive every streamer", n)
	}
}

func tableLen() int {
	matTable.Lock()
	defer matTable.Unlock()
	return len(matTable.m)
}

// TestSharedMatsConcurrent: eight streamers built at once on separate
// workers from separately loaded copies all share every matrix (the
// race detector checks the table's locking).
func TestSharedMatsConcurrent(t *testing.T) {
	t.Run("f64", func(t *testing.T) { sharedMatsConcurrent[float64](t) })
	t.Run("f32", func(t *testing.T) { sharedMatsConcurrent[float32](t) })
}

func sharedMatsConcurrent[S tensor.Scalar](t *testing.T) {
	const n = 8
	nets := sharedNets(t, 16, n)
	sts := make([]*StreamerOf[S], n)
	errs := make([]error, n)
	par.New(n).Run(n, func(_, i int) {
		sts[i], errs[i] = NewStreamerOf[S](nets[i], sharedCfg)
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("streamer %d: %v", i, err)
		}
	}
	for i, st := range sts[1:] {
		for j, same := range sharedArrays(t, sts[0], st) {
			if !same {
				t.Fatalf("streamer %d, matrix %d: concurrent construction made a second copy", i+1, j)
			}
		}
	}
	scoreAlike(t, sts, nets[0])
}
