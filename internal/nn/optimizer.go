package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from their accumulated gradients. Step
// consumes the gradient (the caller zeroes it afterwards via
// Network.ZeroGrad); scale is applied to the gradient first (1/batch
// for averaging).
type Optimizer interface {
	Step(params []*Param, scale float64)
}

// OptimizerState is a serialisable snapshot of an optimizer's internal
// state, keyed by the order of the params slice it was taken against.
// Moments holds one slot per internal per-parameter buffer (Adam: m
// then v); a zero-length inner slice stands for a buffer the
// optimizer has not materialised yet (equivalent to zeros).
type OptimizerState struct {
	Kind    string
	Step    int
	LR      float64
	Moments [][][]float64
}

// Checkpointable is an optimizer whose state can be captured into a
// training checkpoint and restored so that a resumed run continues
// bit-identically. Adam implements it.
type Checkpointable interface {
	Optimizer
	// State snapshots the optimizer against the given parameter order.
	State(params []*Param) OptimizerState
	// SetState restores a snapshot taken with the same parameter order.
	SetState(params []*Param, st OptimizerState) error
}

// LRScaler is an optimizer whose learning rate the trainer can back
// off when it rolls back a diverged epoch.
type LRScaler interface {
	ScaleLR(factor float64)
}

// snapshotMoment copies one per-param buffer map in params order.
func snapshotMoment(params []*Param, m map[*Param][]float64) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), m[p]...)
	}
	return out
}

// restoreMoment installs one per-param buffer map from a snapshot.
func restoreMoment(params []*Param, m map[*Param][]float64, snap [][]float64) error {
	if len(snap) != len(params) {
		return fmt.Errorf("nn: optimizer state has %d buffers, want %d", len(snap), len(params))
	}
	for i, p := range params {
		if len(snap[i]) == 0 {
			delete(m, p)
			continue
		}
		if len(snap[i]) != p.W.Len() {
			return fmt.Errorf("nn: optimizer buffer %d has %d values, param has %d",
				i, len(snap[i]), p.W.Len())
		}
		m[p] = append([]float64(nil), snap[i]...)
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba 2015) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the conventional defaults for
// any field left at zero (lr 1e-3, β₁ 0.9, β₂ 0.999, ε 1e-8).
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-3
	}
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param][]float64{}, v: map[*Param][]float64{},
	}
}

// ScaleLR implements LRScaler.
func (a *Adam) ScaleLR(factor float64) { a.LR *= factor }

// State implements Checkpointable.
func (a *Adam) State(params []*Param) OptimizerState {
	return OptimizerState{
		Kind: "adam",
		Step: a.t,
		LR:   a.LR,
		Moments: [][][]float64{
			snapshotMoment(params, a.m),
			snapshotMoment(params, a.v),
		},
	}
}

// SetState implements Checkpointable.
func (a *Adam) SetState(params []*Param, st OptimizerState) error {
	if st.Kind != "adam" {
		return fmt.Errorf("nn: checkpoint holds %q optimizer state, trainer uses adam", st.Kind)
	}
	if len(st.Moments) != 2 {
		return fmt.Errorf("nn: adam state has %d moment slots, want 2", len(st.Moments))
	}
	if st.Step < 0 {
		return fmt.Errorf("nn: adam state has negative step count %d", st.Step)
	}
	if st.LR <= 0 || math.IsInf(st.LR, 0) || math.IsNaN(st.LR) {
		return fmt.Errorf("nn: adam state has invalid learning rate %g", st.LR)
	}
	if a.m == nil {
		a.m = map[*Param][]float64{}
	}
	if a.v == nil {
		a.v = map[*Param][]float64{}
	}
	if err := restoreMoment(params, a.m, st.Moments[0]); err != nil {
		return err
	}
	if err := restoreMoment(params, a.v, st.Moments[1]); err != nil {
		return err
	}
	a.t = st.Step
	a.LR = st.LR
	return nil
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param, scale float64) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, p.W.Len())
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, p.W.Len())
			a.v[p] = v
		}
		wd, gd := p.W.Data(), p.G.Data()
		for i := range wd {
			g := gd[i] * scale
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / c1
			vh := v[i] / c2
			wd[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
