// Package nn is a small from-scratch neural-network framework built
// for the paper's models: 1-D convolutions, max pooling, dense layers,
// branch/concat composition (the paper's three-branch CNN), LSTM and
// ConvLSTM recurrences, weighted binary cross-entropy with
// class-imbalance bias initialisation, the Adam optimizer, and a
// trainer with validation-based early stopping. There is no autograd:
// every layer implements its own exact backward pass, each verified
// against numerical differentiation in the test suite.
//
// The framework processes one sample per Forward/Backward call and
// accumulates parameter gradients across a mini-batch; the trainer
// averages and steps. This keeps layer code simple and auditable —
// fitting for models whose entire parameter count must fit in a
// microcontroller's flash.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	//fallvet:derived immutable identifier assigned by newParam; snapshot geometry is positional
	Name string
	W    *tensor.Tensor
	//fallvet:derived training-only gradient accumulator, zeroed by ZeroGrad rather than restored
	G *tensor.Tensor
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is one differentiable stage. Forward consumes the previous
// activation; Backward consumes ∂L/∂output and returns ∂L/∂input,
// accumulating parameter gradients internally. A layer may cache
// forward state; calls are strictly Forward-then-Backward per sample.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutShape reports the output shape for a given input shape,
	// without running data through the layer.
	OutShape(in []int) ([]int, error)
}

// glorotInit fills w with Glorot-uniform values for the given fan-in
// and fan-out.
func glorotInit(w *tensor.Tensor, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	d := w.Data()
	for i := range d {
		d[i] = (2*rng.Float64() - 1) * limit
	}
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkShape(layer string, got, want []int) {
	if !shapeEq(got, want) {
		panic(fmt.Sprintf("nn: %s got shape %v, want %v", layer, got, want))
	}
}
