// Package tensor provides small dense numeric tensors used by the
// neural-network and signal-processing substrates.
//
// Tensors are row-major scalar buffers with an explicit shape. The
// scalar is a type parameter — Of[float64] carries training and the
// reference inference path, Of[float32] carries the lowered edge
// inference path — and Tensor is an alias for the float64
// instantiation, so all pre-generic call sites compile unchanged and
// the float64 arithmetic is bit-identical to the concrete
// implementation it replaced. The package favours clarity and
// predictable allocation over raw speed: the models in this repository
// are deliberately tiny (the paper's whole point is fitting in 256 KiB
// of flash), so a straightforward implementation is fast enough while
// remaining auditable.
package tensor

import (
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// Scalar is the numeric element type a tensor (and every kernel built
// on one) can be instantiated at. float64 is the training and
// reference width; float32 is the lowered inference width matching the
// paper's single-precision-FPU deployment target.
type Scalar interface {
	float32 | float64
}

// Of is a dense row-major tensor over scalar type S.
type Of[S Scalar] struct {
	shape []int
	data  []S
}

// Tensor is the float64 instantiation — the training and reference
// width. The alias keeps every pre-generic call site source- and
// bit-compatible.
type Tensor = Of[float64]

// New returns a zero float64 tensor with the given shape.
// New() with no arguments returns a scalar-shaped tensor of one element.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewOf returns a zero tensor of scalar type S with the given shape.
func NewOf[S Scalar](shape ...int) *Of[S] {
	// Copy before validating so the variadic slice never escapes — the
	// panic message referencing `shape` directly would force every
	// caller (including the scratch-reusing hot paths) to heap-allocate
	// the argument slice.
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, s))
		}
		n *= d
	}
	return &Of[S]{shape: s, data: make([]S, n)}
}

// FromSlice wraps float64 data in a tensor of the given shape. The
// slice is used directly (not copied); len(data) must equal the shape
// product.
func FromSlice(data []float64, shape ...int) *Tensor {
	return FromSliceOf(data, shape...)
}

// FromSliceOf wraps data in a tensor of the given shape. The slice is
// used directly (not copied); len(data) must equal the shape product.
func FromSliceOf[S Scalar](data []S, shape ...int) *Of[S] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, got %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Of[S]{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not
// be modified.
func (t *Of[S]) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Of[S]) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Of[S]) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Of[S]) Len() int { return len(t.data) }

// Data returns the underlying buffer. Mutations are visible to the
// tensor; this is the intended way for hot loops to access storage.
func (t *Of[S]) Data() []S { return t.data }

// Clone returns a deep copy.
func (t *Of[S]) Clone() *Of[S] {
	d := make([]S, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Of[S]{shape: s, data: d}
}

// Reshape returns a view of the same data with a new shape. The total
// element count must be unchanged.
func (t *Of[S]) Reshape(shape ...int) *Of[S] {
	// Copy first so the variadic slice never escapes (see New).
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), s, n))
	}
	return &Of[S]{shape: s, data: t.data}
}

// index computes the flat offset for the given multi-index.
func (t *Of[S]) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for k, i := range idx {
		if i < 0 || i >= t.shape[k] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", i, t.shape[k], k))
		}
		off = off*t.shape[k] + i
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Of[S]) At(idx ...int) S { return t.data[t.index(idx...)] }

// Set stores v at the given multi-index.
func (t *Of[S]) Set(v S, idx ...int) { t.data[t.index(idx...)] = v }

// Fill sets every element to v.
func (t *Of[S]) Fill(v S) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Of[S]) Zero() { t.Fill(0) }

// Apply replaces each element x with f(x).
func (t *Of[S]) Apply(f func(S) S) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// AddScaled adds alpha*o element-wise into t. Shapes must match in
// element count.
func (t *Of[S]) AddScaled(alpha S, o *Of[S]) {
	if len(t.data) != len(o.data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (t *Of[S]) Scale(alpha S) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Sum returns the sum of all elements, accumulated at the tensor's own
// width.
func (t *Of[S]) Sum() S {
	var s S
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Of[S]) Max() S {
	m := S(math.Inf(-1))
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Of[S]) Min() S {
	m := S(math.Inf(1))
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns max(|x|) over all elements (0 for empty data).
func (t *Of[S]) AbsMax() S {
	var m S
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Mean returns the arithmetic mean of all elements.
func (t *Of[S]) Mean() S {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / S(len(t.data))
}

// Std returns the population standard deviation.
func (t *Of[S]) Std() S {
	if len(t.data) == 0 {
		return 0
	}
	mu := t.Mean()
	var s S
	for _, v := range t.data {
		d := v - mu
		s += d * d
	}
	return S(math.Sqrt(float64(s) / float64(len(t.data))))
}

// Equal reports whether t and o have identical shapes and all elements
// within eps of each other.
func (t *Of[S]) Equal(o *Of[S], eps float64) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	for i := range t.data {
		if math.Abs(float64(t.data[i]-o.data[i])) > eps {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Of[S]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

// MatMul computes C = A·B for 2-D tensors A[m×k], B[k×n] into a new
// tensor C[m×n].
func MatMul[S Scalar](a, b *Of[S]) *Of[S] {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic("tensor: MatMul needs 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	c := NewOf[S](m, n)
	ad, bd, cd := a.data, b.data, c.data
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MatVec computes y = A·x for A[m×n], x[n] into a new length-m tensor.
func MatVec[S Scalar](a, x *Of[S]) *Of[S] {
	if a.Dims() != 2 || x.Dims() != 1 {
		panic("tensor: MatVec needs 2-D matrix and 1-D vector")
	}
	m, n := a.shape[0], a.shape[1]
	if n != x.shape[0] {
		panic(fmt.Sprintf("tensor: MatVec dims %d != %d", n, x.shape[0]))
	}
	y := NewOf[S](m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		var s S
		for j, v := range row {
			s += v * x.data[j]
		}
		y.data[i] = s
	}
	return y
}

// Dot returns the inner product of two 1-D tensors.
func Dot[S Scalar](a, b *Of[S]) S {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot size mismatch")
	}
	var s S
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}

// Transpose returns a new 2-D tensor that is the transpose of a.
func Transpose[S Scalar](a *Of[S]) *Of[S] {
	if a.Dims() != 2 {
		panic("tensor: Transpose needs a 2-D tensor")
	}
	m, n := a.shape[0], a.shape[1]
	t := NewOf[S](n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.data[j*m+i] = a.data[i*n+j]
		}
	}
	return t
}

// Reuse returns t when its buffer already holds exactly the product of
// shape elements and its rank matches (rewriting the dims in place), and
// a freshly allocated tensor otherwise. It is the scratch-buffer
// primitive behind the allocation-free layer kernels: a layer keeps the
// returned tensor and passes it back on the next call, so steady-state
// hot paths stop allocating once shapes stabilise.
//
// Reuse never zeroes the buffer — callers that accumulate into it must
// call Zero themselves. Because the dims are rewritten in place, the
// tensor must be owned by the caller (never a view of someone else's
// buffer).
//
//fallvet:hotpath
func Reuse[S Scalar](t *Of[S], shape ...int) *Of[S] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t == nil || len(t.data) != n || len(t.shape) != len(shape) {
		//fallvet:ignore hottrans cold branch: taken only until the caller's shapes stabilise; the AllocsPerRun gates prove steady-state reuse
		return NewOf[S](shape...)
	}
	copy(t.shape, shape)
	return t
}

// ViewInto returns a view of src's buffer with the given shape, reusing
// *cache when it already aliases that exact buffer (avoiding the header
// allocation Reshape pays in hot loops). The element count must match
// src's. On a cache miss the fresh view is stored back into *cache.
//
//fallvet:hotpath
func ViewInto[S Scalar](cache **Of[S], src *Of[S], shape ...int) *Of[S] {
	c := *cache
	if c != nil && len(c.data) == len(src.data) && len(src.data) > 0 &&
		&c.data[0] == &src.data[0] && len(c.shape) == len(shape) {
		copy(c.shape, shape)
		return c
	}
	//fallvet:ignore hottrans cache miss: the fresh view header is built once, then every later call hits the cache (alloc gates)
	v := src.Reshape(shape...)
	*cache = v
	return v
}

// Concat1D concatenates 1-D tensors into a single 1-D tensor.
func Concat1D[S Scalar](parts ...*Of[S]) *Of[S] {
	n := 0
	for _, p := range parts {
		n += len(p.data)
	}
	out := NewOf[S](n)
	off := 0
	for _, p := range parts {
		copy(out.data[off:], p.data)
		off += len(p.data)
	}
	return out
}

// Is64 reports whether S is float64. The width test is a size compare
// the compiler folds to a per-instantiation constant — no boxing, no
// allocation — so it is safe on push and score paths (the incremental
// scorer's widen fallback branches on it every stride).
func Is64[S Scalar]() bool {
	var z S
	return unsafe.Sizeof(z) == 8
}

// Precision names a compiled scalar width at run time: the choice a
// flag or a config makes, the dtype byte of an artifact envelope and
// the dtype word of a pipeline state image. The values are the ones
// those formats store, so they never change; a new width is one more
// value here.
type Precision uint8

const (
	// F64 is the float64 training and reference width — the zero
	// value, and what every image written before the dtype field held.
	F64 Precision = 0
	// F32 is the lowered float32 inference width.
	F32 Precision = 1
)

// PrecisionOf returns the Precision of scalar type S.
func PrecisionOf[S Scalar]() Precision {
	if Is64[S]() {
		return F64
	}
	return F32
}

// Valid reports whether p is a width this build compiles.
func (p Precision) Valid() bool { return p == F64 || p == F32 }

// String names the width the way flags and results headers spell it.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	}
	return fmt.Sprintf("precision(%d)", uint8(p))
}

// ParsePrecision reads the spellings String produces ("f64", "f32";
// "float64"/"float32" are accepted as aliases).
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return 0, fmt.Errorf("unknown precision %q (want f64 or f32)", s)
}

// Widen copies src (any scalar width) into a float64 tensor, reusing
// dst's buffer when its element count already matches. float32→float64
// conversion is exact, so Widen(Lower(t)) at float32 loses exactly the
// bits Lower dropped and nothing else.
func Widen[S Scalar](dst *Tensor, src *Of[S]) *Tensor {
	out := Reuse(dst, src.shape...)
	od := out.data
	for i, v := range src.data {
		od[i] = float64(v)
	}
	return out
}

// Lower copies a float64 tensor into a tensor of scalar type S,
// reusing dst's buffer when its element count already matches. At
// S=float64 it is a plain copy; at S=float32 each element is rounded
// to nearest-even single precision — the checkpoint-lowering primitive
// behind the float32 inference path.
func Lower[S Scalar](dst *Of[S], src *Tensor) *Of[S] {
	out := Reuse(dst, src.shape...)
	od := out.data
	for i, v := range src.data {
		od[i] = S(v)
	}
	return out
}
