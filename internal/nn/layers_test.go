package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestDenseKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	copy(d.Weight.W.Data(), []float64{1, 2, 3, 4})
	copy(d.Bias.W.Data(), []float64{0.5, -0.5})
	y := d.Forward(tensor.FromSlice([]float64{1, 1}, 2), false)
	if y.At(0) != 3.5 || y.At(1) != 6.5 {
		t.Fatalf("dense output %v", y.Data())
	}
}

func TestDenseShapePanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input shape accepted")
		}
	}()
	d.Forward(tensor.New(4), false)
}

func TestConv1DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D(1, 1, 2, rng)
	copy(c.Weight.W.Data(), []float64{1, -1}) // difference filter
	c.Bias.W.Data()[0] = 0
	x := tensor.FromSlice([]float64{1, 3, 6, 10}, 4, 1)
	y := c.Forward(x, false)
	want := []float64{-2, -3, -4}
	for i, v := range want {
		if math.Abs(y.Data()[i]-v) > 1e-12 {
			t.Fatalf("conv output %v, want %v", y.Data(), want)
		}
	}
}

func TestConv1DTooShortPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv1D(1, 1, 5, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("short input accepted")
		}
	}()
	c.Forward(tensor.New(3, 1), false)
}

func TestMaxPoolValues(t *testing.T) {
	m := NewMaxPool1D(2)
	x := tensor.FromSlice([]float64{
		1, 10,
		3, 2,
		-5, 7,
		0, 8,
		9, -1, // partial window
	}, 5, 2)
	y := m.Forward(x, false)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("pool shape %v", y.Shape())
	}
	want := []float64{3, 10, 0, 8, 9, -1}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("pool output %v, want %v", y.Data(), want)
		}
	}
}

func TestMaxPoolBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pool 0 accepted")
		}
	}()
	NewMaxPool1D(0)
}

func TestActivationValues(t *testing.T) {
	x := tensor.FromSlice([]float64{-2, 0, 3}, 3)
	r := NewReLU().Forward(x, false)
	if r.At(0) != 0 || r.At(1) != 0 || r.At(2) != 3 {
		t.Fatalf("relu %v", r.Data())
	}
	s := NewSigmoid().Forward(tensor.FromSlice([]float64{0}, 1), false)
	if math.Abs(s.At(0)-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %g", s.At(0))
	}
}

func TestSigmoidBounded(t *testing.T) {
	// The paper: "the output of the sigmoid function is bounded
	// between zero and one".
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		x := tensor.FromSlice([]float64{rng.NormFloat64() * 50}, 1)
		p := NewSigmoid().Forward(x, false).At(0)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("sigmoid out of range: %g", p)
		}
	}
}

func TestBranchSplitsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Identity-ish branches: flatten each slice.
	b := NewBranch(
		[][2]int{{0, 1}, {1, 3}},
		[][]Layer{{NewFlatten()}, {NewFlatten()}},
	)
	_ = rng
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
	}, 2, 3)
	y := b.Forward(x, false)
	want := []float64{1, 4, 2, 3, 5, 6}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("branch concat %v, want %v", y.Data(), want)
		}
	}
}

func TestBranchValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewBranch(nil, nil) },
		func() { NewBranch([][2]int{{0, 1}}, nil) },
		func() { NewBranch([][2]int{{2, 1}}, [][]Layer{{NewFlatten()}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid branch config accepted")
				}
			}()
			f()
		}()
	}
}

func TestOutShapeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 40×9 input through the paper's CNN: 3 branches of conv(16,k5)+pool2.
	branch := func() []Layer {
		return []Layer{NewConv1D(3, 16, 5, rng), NewReLU(), NewMaxPool1D(2)}
	}
	net := NewNetwork(
		NewBranch([][2]int{{0, 3}, {3, 6}, {6, 9}},
			[][]Layer{branch(), branch(), branch()}),
		NewDense(3*18*16, 64, rng),
		NewReLU(),
		NewDense(64, 32, rng),
		NewReLU(),
		NewDense(32, 1, rng),
		NewSigmoid(),
	)
	shape := []int{40, 9}
	for _, l := range net.Layers {
		var err error
		shape, err = l.OutShape(shape)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
	}
	if len(shape) != 1 || shape[0] != 1 {
		t.Fatalf("final shape %v, want [1]", shape)
	}
	if s := net.Summary([]int{40, 9}); s == "" {
		t.Fatal("empty summary")
	}
}

func TestOutShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := NewDense(4, 2, rng).OutShape([]int{5}); err == nil {
		t.Error("dense wrong size accepted")
	}
	if _, err := NewConv1D(3, 2, 5, rng).OutShape([]int{4, 3}); err == nil {
		t.Error("conv too-short input accepted")
	}
	if _, err := NewLSTM(3, 2, rng).OutShape([]int{5, 4}); err == nil {
		t.Error("lstm wrong channels accepted")
	}
	if _, err := NewConvLSTM(9, 2, 3, rng).OutShape([]int{5, 4}); err == nil {
		t.Error("convlstm wrong channels accepted")
	}
	b := NewBranch([][2]int{{0, 12}}, [][]Layer{{NewFlatten()}})
	if _, err := b.OutShape([]int{5, 9}); err == nil {
		t.Error("branch columns beyond input accepted")
	}
}

func TestLSTMSequenceSensitivity(t *testing.T) {
	// The LSTM must distinguish sequence order (unlike sum pooling).
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM(1, 4, rng)
	a := tensor.FromSlice([]float64{1, 2, 3, 4}, 4, 1)
	b := tensor.FromSlice([]float64{4, 3, 2, 1}, 4, 1)
	ya := l.Forward(a, false)
	yb := l.Forward(b, false)
	diff := 0.0
	for i := range ya.Data() {
		diff += math.Abs(ya.Data()[i] - yb.Data()[i])
	}
	if diff < 1e-6 {
		t.Fatal("LSTM insensitive to order")
	}
}

func TestConvLSTMKernelMustBeOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even kernel accepted")
		}
	}()
	NewConvLSTM(9, 2, 4, rand.New(rand.NewSource(1)))
}

func TestConvLSTMSpatialLocality(t *testing.T) {
	// With kernel 3, perturbing channel 0 must not change hidden
	// units at spatial position 8 after a single timestep.
	rng := rand.New(rand.NewSource(9))
	l := NewConvLSTM(9, 2, 3, rng)
	x1 := tensor.New(1, 9)
	x2 := tensor.New(1, 9)
	x2.Data()[0] = 5 // perturb channel 0 only
	y1 := l.Forward(x1, false)
	y2 := l.Forward(x2, false)
	// Positions ≥ 2 are outside the kernel-3 receptive field of
	// channel 0 after one step.
	for p := 2; p < 9; p++ {
		for f := 0; f < 2; f++ {
			ix := p*2 + f
			if math.Abs(y1.Data()[ix]-y2.Data()[ix]) > 1e-12 {
				t.Fatalf("position %d affected beyond receptive field", p)
			}
		}
	}
	// Position 0 must be affected.
	if math.Abs(y1.Data()[0]-y2.Data()[0]) < 1e-12 {
		t.Fatal("perturbation had no local effect")
	}
}

// Property: every layer produces identical outputs in train
// and inference mode.
func TestTrainInferEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	layers := []Layer{
		NewDense(27, 8, rng),
		NewConv1D(9, 4, 3, rng),
		NewMaxPool1D(2),
		NewReLU(),
		NewSigmoid(),
		NewLSTM(9, 4, rng),
		NewConvLSTM(9, 2, 3, rng),
		NewGRU(9, 4, false, rng),
	}
	for _, l := range layers {
		var x *tensor.Tensor
		switch l.(type) {
		case *Dense:
			x = tensor.New(27)
		default:
			x = tensor.New(6, 9)
		}
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		a := l.Forward(x, true)
		b := l.Forward(x, false)
		if !a.Equal(b, 1e-12) {
			t.Errorf("%s: train/infer outputs differ", l.Name())
		}
	}
}
