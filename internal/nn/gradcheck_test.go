package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numGradCheck verifies a layer's analytic gradients (input and
// parameters) against central finite differences of the scalar
// pseudo-loss L = Σᵢ wᵢ·outᵢ for random w.
func numGradCheck(t *testing.T, layer Layer, inShape []int, seed int64, avoidKinks bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(inShape...)
	for i := range x.Data() {
		v := rng.NormFloat64()
		if avoidKinks {
			// Keep values away from activation kinks / pooling ties.
			for math.Abs(v) < 0.05 {
				v = rng.NormFloat64()
			}
		}
		x.Data()[i] = v
	}

	out := layer.Forward(x, true)
	w := tensor.New(out.Shape()...)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		o := layer.Forward(x, false)
		s := 0.0
		for i, v := range o.Data() {
			s += w.Data()[i] * v
		}
		return s
	}

	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	// Re-run forward in train mode so caches match the weight values,
	// then backprop the pseudo-loss gradient.
	layer.Forward(x, true)
	dx := layer.Backward(w.Clone())

	const h = 1e-5
	const tol = 2e-4
	relErr := func(a, b float64) float64 {
		den := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(a-b) / den
	}

	// Input gradient.
	xd := x.Data()
	for i := 0; i < len(xd); i += 1 + len(xd)/40 { // sample up to ~40 coords
		orig := xd[i]
		xd[i] = orig + h
		lp := loss()
		xd[i] = orig - h
		lm := loss()
		xd[i] = orig
		num := (lp - lm) / (2 * h)
		if e := relErr(num, dx.Data()[i]); e > tol {
			t.Errorf("%s: input grad[%d] analytic %.6g vs numeric %.6g (rel %.2g)",
				layer.Name(), i, dx.Data()[i], num, e)
			return
		}
	}

	// Parameter gradients.
	for _, p := range layer.Params() {
		wd := p.W.Data()
		gd := p.G.Data()
		for i := 0; i < len(wd); i += 1 + len(wd)/40 {
			orig := wd[i]
			wd[i] = orig + h
			lp := loss()
			wd[i] = orig - h
			lm := loss()
			wd[i] = orig
			num := (lp - lm) / (2 * h)
			if e := relErr(num, gd[i]); e > tol {
				t.Errorf("%s: %s grad[%d] analytic %.6g vs numeric %.6g (rel %.2g)",
					layer.Name(), p.Name, i, gd[i], num, e)
				return
			}
		}
	}
}

func TestGradDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numGradCheck(t, NewDense(7, 5, rng), []int{7}, 2, false)
}

func TestGradConv1D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	numGradCheck(t, NewConv1D(3, 4, 5, rng), []int{20, 3}, 4, false)
}

func TestGradConv1DKernelEqualsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numGradCheck(t, NewConv1D(2, 3, 8, rng), []int{8, 2}, 6, false)
}

func TestGradMaxPool(t *testing.T) {
	numGradCheck(t, NewMaxPool1D(2), []int{10, 3}, 7, true)
	numGradCheck(t, NewMaxPool1D(3), []int{10, 2}, 8, true) // partial tail window
}

func TestGradReLU(t *testing.T) {
	numGradCheck(t, NewReLU(), []int{12}, 9, true)
}

func TestGradSigmoid(t *testing.T) {
	numGradCheck(t, NewSigmoid(), []int{6}, 10, false)
}

func TestGradFlatten(t *testing.T) {
	numGradCheck(t, NewFlatten(), []int{4, 3}, 12, false)
}

func TestGradLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	numGradCheck(t, NewLSTM(3, 4, rng), []int{9, 3}, 14, false)
}

func TestGradConvLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	numGradCheck(t, NewConvLSTM(5, 3, 3, rng), []int{7, 5}, 16, false)
}

func TestGradBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	b := NewBranch(
		[][2]int{{0, 3}, {3, 6}, {6, 9}},
		[][]Layer{
			{NewConv1D(3, 4, 3, rng), NewMaxPool1D(2)},
			{NewConv1D(3, 4, 3, rng), NewMaxPool1D(2)},
			{NewConv1D(3, 4, 3, rng), NewMaxPool1D(2)},
		},
	)
	numGradCheck(t, b, []int{12, 9}, 18, true)
}

func TestGradBranchWithActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	b := NewBranch(
		[][2]int{{0, 2}, {2, 5}},
		[][]Layer{
			{NewConv1D(2, 3, 3, rng), NewReLU(), NewMaxPool1D(2)},
			{NewDenseOverTime(t, rng)},
		},
	)
	numGradCheck(t, b, []int{10, 5}, 20, true)
}

// NewDenseOverTime builds an LSTM for branch composition testing.
func NewDenseOverTime(t *testing.T, rng *rand.Rand) Layer {
	t.Helper()
	return NewLSTM(3, 2, rng)
}

// Full-network gradient check through the paper's architecture shape.
func TestGradFullCNNStack(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	branch := func() []Layer {
		return []Layer{NewConv1D(3, 4, 3, rng), NewMaxPool1D(2), NewReLU()}
	}
	net := NewNetwork(
		NewBranch([][2]int{{0, 3}, {3, 6}, {6, 9}},
			[][]Layer{branch(), branch(), branch()}),
		NewDense(4*5*3, 8, rng),
		NewReLU(),
		NewDense(8, 1, rng),
		NewSigmoid(),
	)
	// Wrap the whole network as a single pseudo-layer.
	numGradCheck(t, &netAsLayer{net}, []int{12, 9}, 22, true)
}

type netAsLayer struct{ n *Network }

func (a *netAsLayer) Name() string { return "network" }
func (a *netAsLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return a.n.Forward(x, train)
}
func (a *netAsLayer) Backward(g *tensor.Tensor) *tensor.Tensor { return a.n.Backward(g) }
func (a *netAsLayer) Params() []*Param                         { return a.n.Params() }
func (a *netAsLayer) OutShape(in []int) ([]int, error) {
	shape := in
	var err error
	for _, l := range a.n.Layers {
		if shape, err = l.OutShape(shape); err != nil {
			return nil, err
		}
	}
	return shape, nil
}

// Loss gradient check: WeightedBCE's ∂L/∂p.
func TestGradWeightedBCE(t *testing.T) {
	loss := NewWeightedBCE(0.6, 7.5)
	const h = 1e-7
	for _, y := range []int{0, 1} {
		for _, p := range []float64{0.05, 0.3, 0.5, 0.9, 0.99} {
			num := (loss.Loss(p+h, y) - loss.Loss(p-h, y)) / (2 * h)
			got := loss.Grad(p, y).Data()[0]
			if math.Abs(num-got)/math.Max(1, math.Abs(num)) > 1e-5 {
				t.Errorf("BCE grad at p=%g y=%d: analytic %g vs numeric %g", p, y, got, num)
			}
		}
	}
}
