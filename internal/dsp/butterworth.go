// Package dsp implements the signal-processing substrate used by the
// pre-impact fall-detection pipeline: Butterworth low-pass filter
// design (the paper's 4th-order 5 Hz filter), zero-phase and streaming
// filtering, sliding-window segmentation and interpolation primitives
// used by the time-warping augmentations.
package dsp

import (
	"fmt"
	"math"
)

// Biquad is one second-order IIR section in direct form II transposed.
//
//	y[n] = b0*x[n] + b1*x[n-1] + b2*x[n-2] - a1*y[n-1] - a2*y[n-2]
//
// with a0 normalised to 1.
type Biquad struct {
	//fallvet:derived filter design coefficients, fixed by the designer; AppendState serialises only the z1/z2 state
	B0, B1, B2 float64
	//fallvet:derived filter design coefficients, fixed by the designer; AppendState serialises only the z1/z2 state
	A1, A2 float64
	z1, z2 float64 // DF2T state
}

// Process filters one sample and advances the section's state.
//
//fallvet:hotpath
func (q *Biquad) Process(x float64) float64 {
	y := q.B0*x + q.z1
	q.z1 = q.B1*x - q.A1*y + q.z2
	q.z2 = q.B2*x - q.A2*y
	return y
}

// Reset clears the filter state.
func (q *Biquad) Reset() { q.z1, q.z2 = 0, 0 }

// clone returns a state-free copy of the coefficients.
func (q *Biquad) clone() Biquad {
	return Biquad{B0: q.B0, B1: q.B1, B2: q.B2, A1: q.A1, A2: q.A2}
}

// warm sets the section state to its steady-state response to a
// constant input x, so that a constant signal passes without a
// startup transient. It returns the steady-state output.
func (q *Biquad) warm(x float64) float64 {
	g := (q.B0 + q.B1 + q.B2) / (1 + q.A1 + q.A2) // DC gain
	y := g * x
	q.z2 = q.B2*x - q.A2*y
	q.z1 = (q.B1+q.B2)*x - (q.A1+q.A2)*y
	return y
}

// Filter is a cascade of biquad sections, i.e. an even-order IIR filter.
type Filter struct {
	sections []Biquad
}

// Butterworth designs an order-n Butterworth low-pass filter with
// cutoff frequency fc (Hz) for sample rate fs (Hz), using the analog
// prototype and a pre-warped bilinear transform. The order must be a
// positive even number (the paper uses order 4).
func Butterworth(order int, fc, fs float64) (*Filter, error) {
	if order <= 0 || order%2 != 0 {
		return nil, fmt.Errorf("dsp: Butterworth order must be positive and even, got %d", order)
	}
	if fc <= 0 || fs <= 0 || fc >= fs/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz must lie in (0, fs/2=%g)", fc, fs/2)
	}
	// Pre-warped analog cutoff so the digital filter's -3 dB point
	// lands exactly at fc after the bilinear transform.
	k := 2 * fs
	wc := k * math.Tan(math.Pi*fc/fs)

	f := &Filter{sections: make([]Biquad, 0, order/2)}
	for i := 0; i < order/2; i++ {
		// Analog section: H(s) = wc² / (s² + 2ζ·wc·s + wc²) with the
		// Butterworth damping 2ζ = 2·sin((2i+1)π/(2n)).
		twoZeta := 2 * math.Sin(float64(2*i+1)*math.Pi/float64(2*order))
		a1s := twoZeta * wc

		d0 := k*k + a1s*k + wc*wc
		d1 := 2*wc*wc - 2*k*k
		d2 := k*k - a1s*k + wc*wc
		f.sections = append(f.sections, Biquad{
			B0: wc * wc / d0,
			B1: 2 * wc * wc / d0,
			B2: wc * wc / d0,
			A1: d1 / d0,
			A2: d2 / d0,
		})
	}
	return f, nil
}

// MustButterworth is Butterworth but panics on a design error. It is
// intended for static configurations known to be valid.
func MustButterworth(order int, fc, fs float64) *Filter {
	f, err := Butterworth(order, fc, fs)
	if err != nil {
		panic(err)
	}
	return f
}

// Order returns the filter order (2 × number of sections).
func (f *Filter) Order() int { return 2 * len(f.sections) }

// Reset clears all section states.
func (f *Filter) Reset() {
	for i := range f.sections {
		f.sections[i].Reset()
	}
}

// AppendState appends the streaming state of every section (z1, z2 in
// cascade order) to dst and returns the extended slice. Together with
// SetState it lets a serving layer snapshot a live filter and resume
// it bit-identically after a crash — the filter warm-up is part of the
// pipeline's warm-up, and losing it costs a full re-prime.
func (f *Filter) AppendState(dst []float64) []float64 {
	for i := range f.sections {
		dst = append(dst, f.sections[i].z1, f.sections[i].z2)
	}
	return dst
}

// StateLen is the number of float64 values AppendState appends.
func (f *Filter) StateLen() int { return 2 * len(f.sections) }

// SetState restores streaming state captured by AppendState. The
// slice length must match StateLen exactly.
func (f *Filter) SetState(st []float64) error {
	if len(st) != f.StateLen() {
		return fmt.Errorf("dsp: filter state holds %d values, want %d", len(st), f.StateLen())
	}
	for i := range f.sections {
		f.sections[i].z1 = st[2*i]
		f.sections[i].z2 = st[2*i+1]
	}
	return nil
}

// Prime initialises the streaming state to the steady-state response
// for a constant input x0, eliminating the startup transient. Edge
// firmware calls this with the first sensor reading; without it the
// output ramps up from zero, which a fall detector would mistake for
// free fall.
//
//fallvet:hotpath
func (f *Filter) Prime(x0 float64) {
	v := x0
	for i := range f.sections {
		v = f.sections[i].warm(v)
	}
}

// Process filters one sample through the whole cascade, advancing the
// internal state. Use this form for streaming (on-edge) operation.
//
//fallvet:hotpath
func (f *Filter) Process(x float64) float64 {
	for i := range f.sections {
		x = f.sections[i].Process(x)
	}
	return x
}

// Apply filters the signal causally into a new slice, starting from a
// zero state. The receiver's streaming state is not disturbed.
func (f *Filter) Apply(x []float64) []float64 {
	return f.apply(x, false)
}

func (f *Filter) apply(x []float64, warm bool) []float64 {
	secs := make([]Biquad, len(f.sections))
	for i := range f.sections {
		secs[i] = f.sections[i].clone()
	}
	if warm && len(x) > 0 {
		// Initialise each section at its steady-state response to the
		// first sample (scipy's lfilter_zi): a constant signal then
		// passes with no startup transient, which FiltFilt relies on.
		v := x[0]
		for i := range secs {
			v = secs[i].warm(v)
		}
	}
	y := make([]float64, len(x))
	for n, v := range x {
		for i := range secs {
			v = secs[i].Process(v)
		}
		y[n] = v
	}
	return y
}

// FiltFilt applies the filter forward and backward, giving zero-phase
// output (the offline pre-processing path: no group delay shifts the
// fall onset labels). The signal edges are extended by odd reflection
// to suppress startup transients, mirroring common practice.
func (f *Filter) FiltFilt(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	// Edge padding length: 3× order is the usual heuristic.
	pad := 3 * f.Order()
	if pad >= n {
		pad = n - 1
	}
	ext := make([]float64, pad+n+pad)
	// Odd reflection about the first/last sample.
	for i := 0; i < pad; i++ {
		ext[i] = 2*x[0] - x[pad-i]
		ext[pad+n+i] = 2*x[n-1] - x[n-2-i]
	}
	copy(ext[pad:], x)

	fw := f.apply(ext, true)
	reverse(fw)
	bw := f.apply(fw, true)
	reverse(bw)

	y := make([]float64, n)
	copy(y, bw[pad:pad+n])
	return y
}

func reverse(x []float64) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}

// FrequencyResponse returns |H(e^{jω})| of the cascade at frequency
// fHz for sample rate fs. Useful for verifying the design (-3 dB at fc).
func (f *Filter) FrequencyResponse(fHz, fs float64) float64 {
	w := 2 * math.Pi * fHz / fs
	re, im := math.Cos(w), -math.Sin(w) // z⁻¹ = e^{-jω}
	// z⁻² components.
	re2, im2 := re*re-im*im, 2*re*im

	mag := 1.0
	for _, s := range f.sections {
		nr := s.B0 + s.B1*re + s.B2*re2
		ni := s.B1*im + s.B2*im2
		dr := 1 + s.A1*re + s.A2*re2
		di := s.A1*im + s.A2*im2
		mag *= math.Hypot(nr, ni) / math.Hypot(dr, di)
	}
	return mag
}
