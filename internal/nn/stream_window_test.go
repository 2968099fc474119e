package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imu"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestScoreShortWindows drives the paper's CNN and its accelerometer
// fallback through streamers whose windows leave the conv output at or
// just above one pool block (window 5 gives a single conv row and no
// complete pool block at all), at strides that stream every branch and
// strides that recompute them, the detector's re-based yaw column
// included. Score must equal Network.Predict bit for bit at f64 and
// BatchScore at f32. edge.NewDetectorOf reaches window 5, step 2 with
// WindowMS 50 and Overlap 0.6.
func TestScoreShortWindows(t *testing.T) {
	for _, kind := range []model.Kind{model.KindCNN, model.KindCNNAccel} {
		for window := 5; window <= 8; window++ {
			for _, step := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v/window%d/step%d", kind, window, step)
				rng := rand.New(rand.NewSource(int64(100*window + step)))
				m, err := model.New(kind, model.Config{WindowSamples: window}, rng)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(name+"/f64", func(t *testing.T) { scoreShortWindow[float64](t, m.Net, window, step) })
				t.Run(name+"/f32", func(t *testing.T) { scoreShortWindow[float32](t, m.Net, window, step) })
			}
		}
	}
}

func scoreShortWindow[S tensor.Scalar](t *testing.T, net *nn.Network, window, step int) {
	const inCh = imu.NumChannels
	rebase := []int{imu.EulerYaw}
	st, err := nn.NewStreamerOf[S](net, nn.StreamConfig{InCh: inCh, Window: window, Step: step, RebaseCols: rebase})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(window*10 + step)))
	var rows [][]float64
	row := make([]S, inCh)
	scored := 0
	for i := 0; i < window+8*step; i++ {
		r := make([]float64, inCh)
		for c := range r {
			r[c] = rng.NormFloat64()
		}
		rows = append(rows, r)
		for c, v := range r {
			row[c] = S(v)
		}
		st.Push(row)
		if len(rows) < window || (len(rows)-window)%step != 0 || !st.Ready() {
			continue
		}
		got := st.Score()
		var want float64
		if tensor.Is64[S]() {
			want = net.Predict(windowOf(rows, window, inCh, rebase))
		} else {
			want = st.BatchScore()
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: Score %v, reference %v", len(rows), got, want)
		}
		scored++
	}
	if scored == 0 {
		t.Fatal("no window scored")
	}
}

// windowOf assembles the last window rows as the detector does,
// subtracting each re-based column's first value.
func windowOf(rows [][]float64, window, inCh int, rebase []int) *tensor.Tensor {
	x := tensor.New(window, inCh)
	d := x.Data()
	for i, r := range rows[len(rows)-window:] {
		copy(d[i*inCh:], r)
	}
	for _, c := range rebase {
		v0 := d[c]
		for i := 0; i < window; i++ {
			d[i*inCh+c] -= v0
		}
	}
	return x
}
