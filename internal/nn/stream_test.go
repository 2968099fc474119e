package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// streamTestNet builds a branch CNN in the paper's shape: per-branch
// Conv1D(w→filters, kernel)→ReLU→MaxPool1D(pool) stacks over the given
// column ranges, then Dense(→16)→ReLU→Dense(→1)→Sigmoid.
func streamTestNet(t testing.TB, window int, cols [][2]int, filters, kernel, pool int, rng *rand.Rand) *Network {
	t.Helper()
	stacks := make([][]Layer, len(cols))
	total := 0
	for i, c := range cols {
		stacks[i] = []Layer{
			NewConv1D(c[1]-c[0], filters, kernel, rng),
			NewReLU(),
			NewMaxPool1D(pool),
		}
		convT := window - kernel + 1
		total += (convT + pool - 1) / pool * filters
	}
	return NewNetwork(
		NewBranch(cols, stacks),
		NewDense(total, 16, rng),
		NewReLU(),
		NewDense(16, 1, rng),
		NewSigmoid(),
	)
}

// assembleRebased builds the batch input the detector would score: the
// last `window` rows of rows, with each rebase column shifted by its
// window-initial value.
func assembleRebased(rows [][]float64, window, inCh int, rebaseCols []int) *tensor.Tensor {
	w := tensor.New(window, inCh)
	d := w.Data()
	start := len(rows) - window
	for i := 0; i < window; i++ {
		copy(d[i*inCh:(i+1)*inCh], rows[start+i])
	}
	for _, c := range rebaseCols {
		v0 := d[c]
		for i := 0; i < window; i++ {
			d[i*inCh+c] -= v0
		}
	}
	return w
}

func pushRandomRow(rng *rand.Rand, inCh int) []float64 {
	r := make([]float64, inCh)
	for c := range r {
		r[c] = rng.NormFloat64()
	}
	return r
}

// TestStreamerBitIdenticalToPredict drives random streams through the
// incremental path and the full-window batch path at every aligned
// stride and requires bit-equality, across geometries that exercise
// rebased (batch-form) branches, partial pool tails, and small rings.
func TestStreamerBitIdenticalToPredict(t *testing.T) {
	cases := []struct {
		name         string
		window, step int
		cols         [][2]int
		inCh         int
		kernel, pool int
		rebase       []int
	}{
		{"paper-cnn", 40, 20, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 9, 5, 2, []int{8}},
		{"accel-only", 40, 20, [][2]int{{0, 3}}, 9, 5, 2, nil},
		{"partial-tail", 20, 2, [][2]int{{0, 2}, {2, 4}}, 4, 4, 2, nil},
		{"pool3", 30, 6, [][2]int{{0, 3}}, 3, 5, 3, nil},
		{"no-stream-all-rebased", 20, 4, [][2]int{{0, 2}}, 2, 3, 2, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			net := streamTestNet(t, tc.window, tc.cols, 8, tc.kernel, tc.pool, rng)
			st, err := NewStreamerOf[float64](net, StreamConfig{
				InCh: tc.inCh, Window: tc.window, Step: tc.step, RebaseCols: tc.rebase,
			})
			if err != nil {
				t.Fatalf("NewStreamer: %v", err)
			}
			var rows [][]float64
			compared := 0
			for i := 0; i < 5*tc.window; i++ {
				row := pushRandomRow(rng, tc.inCh)
				rows = append(rows, row)
				st.Push(row)
				if len(rows) < tc.window || (len(rows)-tc.window)%tc.step != 0 {
					continue
				}
				if !st.Ready() {
					t.Fatalf("streamer not Ready at stride %d", len(rows))
				}
				got := st.Score()
				want := net.Predict(assembleRebased(rows, tc.window, tc.inCh, tc.rebase))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("row %d: incremental %x (%.17g), batch %x (%.17g)",
						len(rows), math.Float64bits(got), got, math.Float64bits(want), want)
				}
				compared++
			}
			if compared == 0 {
				t.Fatal("no strides compared")
			}
		})
	}
}

// TestStreamerRestartRebuild kills a streamer mid-stream, rebuilds a
// fresh one from the last min(count, window) rows via Restart, and
// requires every subsequent decision to match the uninterrupted
// streamer bit-for-bit — the invariant cascade snapshot/restore and
// serve crash-replay lean on.
func TestStreamerRestartRebuild(t *testing.T) {
	const window, step, inCh = 40, 20, 9
	rng := rand.New(rand.NewSource(11))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 8, 5, 2, rng)
	cfg := StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}}
	orig, err := NewStreamerOf[float64](net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]float64
	for i := 0; i < 2*window+7; i++ { // kill point deliberately off-stride
		row := pushRandomRow(rng, inCh)
		rows = append(rows, row)
		orig.Push(row)
	}
	rebuilt, err := NewStreamerOf[float64](net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := window
	if len(rows) < n {
		n = len(rows)
	}
	rebuilt.Restart(len(rows) - n)
	for _, row := range rows[len(rows)-n:] {
		rebuilt.Push(row)
	}
	for i := 0; i < 3*window; i++ {
		row := pushRandomRow(rng, inCh)
		rows = append(rows, row)
		orig.Push(row)
		rebuilt.Push(row)
		if len(rows) >= window && (len(rows)-window)%step == 0 {
			if !orig.Ready() || !rebuilt.Ready() {
				t.Fatalf("not ready at %d", len(rows))
			}
			a, b := orig.Score(), rebuilt.Score()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("row %d: original %x, rebuilt %x", len(rows), math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
}

// TestStreamerRejectsUnsupported: topologies the incremental path
// cannot cache must fail construction so callers fall back to batch.
func TestStreamerRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewNetwork(NewFlatten(), NewDense(80, 8, rng), NewReLU(), NewDense(8, 1, rng), NewSigmoid())
	if _, err := NewStreamerOf[float64](mlp, StreamConfig{InCh: 4, Window: 20, Step: 10}); err == nil {
		t.Fatal("MLP accepted")
	}
	conv := NewNetwork(
		NewBranch([][2]int{{0, 2}}, [][]Layer{{NewConv1D(2, 4, 3, rng), NewReLU(), NewMaxPool1D(2)}}),
		NewDense(36, 4, rng),
		NewReLU(),
		NewMaxPool1D(2), // 2-D-only layer in the head
		NewDense(2, 1, rng),
		NewSigmoid(),
	)
	if _, err := NewStreamerOf[float64](conv, StreamConfig{InCh: 2, Window: 20, Step: 4}); err == nil {
		t.Fatal("maxpool head accepted")
	}
	if _, err := NewStreamerOf[float64](NewNetwork(), StreamConfig{InCh: 2, Window: 20, Step: 4}); err == nil {
		t.Fatal("empty network accepted")
	}
	noReLU := NewNetwork(
		NewBranch([][2]int{{0, 2}}, [][]Layer{{NewConv1D(2, 4, 3, rng), NewMaxPool1D(2)}}),
		NewDense(36, 1, rng),
		NewSigmoid(),
	)
	cfg := StreamConfig{InCh: 2, Window: 20, Step: 4}
	if _, err := NewStreamerOf[float64](noReLU, cfg); err == nil {
		t.Fatal("Conv→MaxPool branch without ReLU accepted at float64")
	}
	if _, err := NewStreamerOf[float32](noReLU, cfg); err == nil {
		t.Fatal("Conv→MaxPool branch without ReLU accepted at float32")
	}
	loneReLU := NewNetwork(
		NewBranch([][2]int{{0, 2}}, [][]Layer{{NewConv1D(2, 4, 3, rng), NewReLU(), NewMaxPool1D(2)}}),
		NewFlatten(),
		NewReLU(), // follows no Dense
		NewDense(36, 1, rng),
		NewSigmoid(),
	)
	if _, err := NewStreamerOf[float64](loneReLU, cfg); err == nil {
		t.Fatal("head ReLU after Flatten accepted")
	}
	net := streamTestNet(t, 20, [][2]int{{0, 2}}, 4, 3, 2, rng)
	if _, err := NewStreamerOf[float64](net, StreamConfig{InCh: 2, Window: 20, Step: 10, RebaseCols: []int{5}}); err == nil {
		t.Fatal("out-of-range rebase column accepted")
	}
	// Step not a multiple of Pool: valid, but the branch cannot stream.
	st, err := NewStreamerOf[float64](net, StreamConfig{InCh: 2, Window: 20, Step: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Streaming() {
		t.Fatal("misaligned stride reported as streaming")
	}
	if st2, err := NewStreamerOf[float64](net, StreamConfig{InCh: 2, Window: 20, Step: 4}); err != nil || !st2.Streaming() {
		t.Fatalf("aligned stride should stream (err=%v)", err)
	}
}

// TestStreamerAllocationFree: steady-state Push and Score stay off the
// heap, including the batch-form rebased branch.
func TestStreamerAllocationFree(t *testing.T) {
	const window, step, inCh = 40, 20, 9
	rng := rand.New(rand.NewSource(5))
	net := streamTestNet(t, window, [][2]int{{0, 3}, {3, 6}, {6, 9}}, 8, 5, 2, rng)
	st, err := NewStreamerOf[float64](net, StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	row := pushRandomRow(rng, inCh)
	for i := 0; i < 3*window; i++ { // warm every ring and layer scratch
		st.Push(row)
		if st.Ready() {
			st.Score()
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		st.Push(row)
		if st.Ready() {
			st.Score()
		}
	}); n != 0 {
		t.Fatalf("Push+Score allocates %.1f/op", n)
	}
}
