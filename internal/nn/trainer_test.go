package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// toyProblem builds a linearly separable 2-feature binary task.
func toyProblem(n int, rng *rand.Rand) []Example {
	out := make([]Example, n)
	for i := range out {
		x := rng.NormFloat64()
		y := rng.NormFloat64()
		label := 0
		if x+y > 0.2 {
			label = 1
		}
		out[i] = Example{X: tensor.FromSlice([]float64{x, y}, 2), Y: label}
	}
	return out
}

func toyNet(rng *rand.Rand) *Network {
	return NewNetwork(
		NewDense(2, 8, rng),
		NewReLU(),
		NewDense(8, 1, rng),
		NewSigmoid(),
	)
}

func TestTrainerLearnsSeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := toyProblem(400, rng)
	val := toyProblem(100, rng)
	test := toyProblem(200, rng)

	net := toyNet(rng)
	tr := NewTrainer(net, NewAdam(0.01), TrainConfig{Epochs: 60, Patience: 15, BatchSize: 16}, rng)
	hist, err := tr.Fit(train, val)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.TrainLoss) == 0 {
		t.Fatal("no history")
	}
	c := Score(net, test, 0.5)
	if c.Accuracy() < 0.9 {
		t.Fatalf("accuracy %.3f < 0.9 on a separable task\n%v", c.Accuracy(), c)
	}
	// Loss must have decreased.
	if hist.TrainLoss[len(hist.TrainLoss)-1] >= hist.TrainLoss[0] {
		t.Fatalf("training loss did not decrease: %g → %g",
			hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1])
	}
}

func TestTrainerEarlyStoppingRestoresBest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := toyProblem(100, rng)
	val := toyProblem(50, rng)
	net := toyNet(rng)
	tr := NewTrainer(net, NewAdam(0.05), TrainConfig{Epochs: 200, Patience: 5, BatchSize: 16}, rng)
	hist, err := tr.Fit(train, val)
	if err != nil {
		t.Fatal(err)
	}
	if !hist.Stopped && len(hist.ValLoss) == 200 {
		t.Log("training ran to the epoch limit (acceptable but unusual at lr=0.05)")
	}
	// The restored weights must reproduce the best validation loss.
	got := tr.Evaluate(val)
	best := math.Inf(1)
	for _, v := range hist.ValLoss {
		best = math.Min(best, v)
	}
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("restored val loss %.6f != best %.6f", got, best)
	}
}

func TestTrainerEmptyTrainingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewTrainer(toyNet(rng), NewAdam(0.01), TrainConfig{}, rng)
	if _, err := tr.Fit(nil, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestTrainerClassWeightsBiasRecall(t *testing.T) {
	// With a 95/5 imbalance, balanced class weights should yield a
	// much better positive recall than unweighted training.
	mk := func(n int, rng *rand.Rand) []Example {
		out := make([]Example, n)
		for i := range out {
			label := 0
			x, y := rng.NormFloat64()*0.7, rng.NormFloat64()*0.7
			if rng.Float64() < 0.05 {
				label = 1
				x += 1.5
				y += 1.5
			}
			out[i] = Example{X: tensor.FromSlice([]float64{x, y}, 2), Y: label}
		}
		return out
	}
	rng := rand.New(rand.NewSource(4))
	train := mk(1500, rng)
	val := mk(300, rng)
	test := mk(800, rng)

	weighted := toyNet(rng)
	trW := NewTrainer(weighted, NewAdam(0.01), TrainConfig{Epochs: 40, Patience: 40, BatchSize: 32}, rng)
	if _, err := trW.Fit(train, val); err != nil {
		t.Fatal(err)
	}
	cW := Score(weighted, test, 0.5)
	if cW.Recall() < 0.5 {
		t.Fatalf("balanced-weight recall %.3f too low: %v", cW.Recall(), &cW)
	}
}

func TestTrainerDeterminism(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(5))
		train := toyProblem(120, rng)
		val := toyProblem(40, rng)
		net := toyNet(rng)
		tr := NewTrainer(net, NewAdam(0.01), TrainConfig{Epochs: 5, BatchSize: 16}, rng)
		hist, err := tr.Fit(train, val)
		if err != nil {
			t.Fatal(err)
		}
		return hist.TrainLoss
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic training at epoch %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestAdamConverges(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data()[0] = -4
	adam := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.G.Data()[0] = 2 * (p.W.Data()[0] - 3)
		adam.Step([]*Param{p}, 1)
	}
	if math.Abs(p.W.Data()[0]-3) > 1e-2 {
		t.Fatalf("Adam converged to %g, want 3", p.W.Data()[0])
	}
}

func TestBalancedWeights(t *testing.T) {
	w0, w1 := BalancedWeights(900, 100)
	if math.Abs(w0-1000.0/1800) > 1e-12 || math.Abs(w1-1000.0/200) > 1e-12 {
		t.Fatalf("balanced weights %g, %g", w0, w1)
	}
	// Degenerate counts fall back to 1,1.
	w0, w1 = BalancedWeights(0, 10)
	if w0 != 1 || w1 != 1 {
		t.Fatal("degenerate weights not neutral")
	}
}

func TestInitialBiasMatchesPrior(t *testing.T) {
	// Paper eq. (1): b = log(p/(1−p)). A network with only the output
	// bias set must predict exactly the prior through the sigmoid.
	pos, total := 36, 1000
	b := InitialBias(pos, total)
	p := 1 / (1 + math.Exp(-b))
	if math.Abs(p-0.036) > 1e-12 {
		t.Fatalf("sigmoid(bias) = %g, want 0.036", p)
	}
	if InitialBias(0, 10) != 0 || InitialBias(10, 10) != 0 {
		t.Fatal("degenerate bias not zero")
	}
}

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := toyNet(rng)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := toyNet(rand.New(rand.NewSource(99))) // different init
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{0.3, -0.7}, 2)
	if math.Abs(a.Predict(x)-b.Predict(x)) > 1e-15 {
		t.Fatal("loaded network differs")
	}
}

func TestNetworkLoadRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := toyNet(rng)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewNetwork(NewDense(3, 1, rng), NewSigmoid())
	if err := other.Load(&buf); err == nil {
		t.Fatal("mismatched architecture loaded")
	}
}

func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := toyNet(rng)
	x := tensor.FromSlice([]float64{1, 2}, 2)
	before := net.Predict(x)
	snap := net.Snapshot()
	for _, p := range net.Params() {
		p.W.Fill(0)
	}
	if net.Predict(x) == before {
		t.Fatal("zeroing had no effect?")
	}
	net.Restore(snap)
	if net.Predict(x) != before {
		t.Fatal("restore did not recover weights")
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 5 TN, 1 FN.
	for i := 0; i < 3; i++ {
		c.Add(0.9, 1)
	}
	c.Add(0.8, 0)
	for i := 0; i < 5; i++ {
		c.Add(0.1, 0)
	}
	c.Add(0.2, 1)
	if c.Total() != 10 {
		t.Fatalf("total %d", c.Total())
	}
	if math.Abs(c.Accuracy()-0.8) > 1e-12 {
		t.Fatalf("acc %g", c.Accuracy())
	}
	if math.Abs(c.Precision()-0.75) > 1e-12 {
		t.Fatalf("prec %g", c.Precision())
	}
	if math.Abs(c.Recall()-0.75) > 1e-12 {
		t.Fatalf("rec %g", c.Recall())
	}
	if math.Abs(c.F1()-0.75) > 1e-12 {
		t.Fatalf("f1 %g", c.F1())
	}
	if c.String() == "" {
		t.Fatal("empty string")
	}
	var empty Confusion
	if empty.Accuracy() != 0 || empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Fatal("empty confusion metrics must be 0")
	}
	d := Confusion{TP: 1}
	d.Merge(c)
	if d.TP != 4 {
		t.Fatal("merge")
	}
}

func TestConfusionThreshold(t *testing.T) {
	var c Confusion
	c.AddThreshold(0.6, 1, 0.9) // below threshold → FN
	if c.FN != 1 {
		t.Fatal("threshold not honoured")
	}
}

func TestParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := toyNet(rng)
	// dense(2→8): 16+8; dense(8→1): 8+1 → 33.
	if got := net.ParamCount(); got != 33 {
		t.Fatalf("ParamCount = %d, want 33", got)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", 2)
	p.G.Data()[0], p.G.Data()[1] = 3, 4 // norm 5
	ClipGradNorm([]*Param{p}, 1)
	if math.Abs(p.G.Data()[0]-0.6) > 1e-12 || math.Abs(p.G.Data()[1]-0.8) > 1e-12 {
		t.Fatalf("clipped grads %v", p.G.Data())
	}
	// Below the bound: untouched.
	ClipGradNorm([]*Param{p}, 10)
	if math.Abs(p.G.Data()[0]-0.6) > 1e-12 {
		t.Fatal("clip modified an in-bound gradient")
	}
	// Non-positive maxNorm is a no-op.
	before := p.G.Data()[0]
	ClipGradNorm([]*Param{p}, 0)
	if p.G.Data()[0] != before {
		t.Fatal("maxNorm 0 clipped")
	}
}

func TestTrainerWithClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	train := toyProblem(100, rng)
	val := toyProblem(30, rng)
	net := toyNet(rng)
	tr := NewTrainer(net, NewAdam(0.01),
		TrainConfig{Epochs: 5, Patience: 5, BatchSize: 16, MaxGradNorm: 1}, rng)
	if _, err := tr.Fit(train, val); err != nil {
		t.Fatal(err)
	}
	// Clipped training must still reduce the loss.
	c := Score(net, val, 0.5)
	if c.Accuracy() < 0.6 {
		t.Fatalf("clipped training accuracy %.2f", c.Accuracy())
	}
}

func TestConfusionInvalidTracksNonFinite(t *testing.T) {
	var c Confusion
	c.AddThreshold(math.NaN(), 1, 0.5)
	c.AddThreshold(math.Inf(1), 0, 0.5)
	c.AddThreshold(math.Inf(-1), 1, 0.5)
	c.AddThreshold(0.9, 1, 0.5) // one honest TP
	if c.Invalid != 3 {
		t.Fatalf("Invalid = %d, want 3", c.Invalid)
	}
	// NaN scores must not masquerade as negatives.
	if c.FN != 0 || c.TN != 0 {
		t.Fatalf("non-finite scores leaked into FN/TN: %+v", c)
	}
	if c.TP != 1 || c.Total() != 1 {
		t.Fatalf("valid prediction miscounted: %+v", c)
	}
	if c.Recall() != 1 {
		t.Fatalf("recall %g polluted by invalid predictions", c.Recall())
	}
	// Invalid is carried through merges and surfaced in String.
	var d Confusion
	d.Merge(c)
	if d.Invalid != 3 {
		t.Fatalf("Merge dropped Invalid: %d", d.Invalid)
	}
	if s := d.String(); !strings.Contains(s, "invalid=3") {
		t.Fatalf("String() hides invalid count: %q", s)
	}
	var clean Confusion
	clean.Add(0.9, 1)
	if strings.Contains(clean.String(), "invalid") {
		t.Fatal("String() mentions invalid when there are none")
	}
}
