package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, element-wise.
type ReLU struct {
	mask  []bool
	y, dx *tensor.Tensor // scratch, reused across calls
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// Forward implements Layer.
//
//fallvet:hotpath
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.Reuse(r.y, x.Shape()...)
	r.y = y
	d := y.Data()
	if train {
		if cap(r.mask) >= len(d) {
			r.mask = r.mask[:len(d)]
		} else {
			//fallvet:ignore hotpath mask warm-up: grows once, then reused (alloc_test proves steady state)
			r.mask = make([]bool, len(d))
		}
	}
	for i, v := range x.Data() {
		if v <= 0 {
			d[i] = 0
			if train {
				r.mask[i] = false
			}
		} else {
			d[i] = v
			if train {
				r.mask[i] = true
			}
		}
	}
	return y
}

// Backward implements Layer.
//
//fallvet:hotpath
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.Reuse(r.dx, grad.Shape()...)
	r.dx = dx
	copy(dx.Data(), grad.Data())
	d := dx.Data()
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return dx
}

// Sigmoid is the logistic activation, element-wise.
type Sigmoid struct {
	y  *tensor.Tensor // scratch; doubles as the train-time cache
	dx *tensor.Tensor // backward scratch
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// OutShape implements Layer.
func (s *Sigmoid) OutShape(in []int) ([]int, error) { return in, nil }

// Forward implements Layer.
//
//fallvet:hotpath
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.Reuse(s.y, x.Shape()...)
	s.y = y
	yd := y.Data()
	for i, v := range x.Data() {
		yd[i] = 1 / (1 + math.Exp(-v))
	}
	return y
}

// Backward implements Layer.
//
//fallvet:hotpath
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.Reuse(s.dx, grad.Shape()...)
	s.dx = dx
	copy(dx.Data(), grad.Data())
	d, yd := dx.Data(), s.y.Data()
	for i := range d {
		d[i] *= yd[i] * (1 - yd[i])
	}
	return dx
}

// Flatten reshapes any input to 1-D.
type Flatten struct {
	inShape []int
	view    *tensor.Tensor // cached 1-D view of the last input buffer
	back    *tensor.Tensor // cached reshaped view of the last gradient
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}, nil
}

// Forward implements Layer.
//
//fallvet:hotpath
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		//fallvet:ignore hotpath shape cache reuses its backing array after the first call
		f.inShape = append(f.inShape[:0], x.Shape()...)
	}
	if x.Dims() == 1 {
		return x
	}
	return tensor.ViewInto(&f.view, x, x.Len())
}

// Backward implements Layer.
//
//fallvet:hotpath
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(f.inShape) == 1 && grad.Dims() == 1 {
		return grad
	}
	return tensor.ViewInto(&f.back, grad, f.inShape...)
}
