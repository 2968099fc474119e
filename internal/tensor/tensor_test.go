package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(3, 4)
	if a.Dims() != 2 || a.Dim(0) != 3 || a.Dim(1) != 4 {
		t.Fatalf("shape = %v, want [3 4]", a.Shape())
	}
	if a.Len() != 12 {
		t.Fatalf("Len = %d, want 12", a.Len())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dim")
		}
	}()
	New(3, 0)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	a := FromSlice(d, 2, 3)
	if a.At(0, 0) != 1 || a.At(0, 2) != 3 || a.At(1, 0) != 4 || a.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %v", a)
	}
	// FromSlice must alias, not copy.
	d[0] = 42
	if a.At(0, 0) != 42 {
		t.Fatal("FromSlice copied instead of aliasing")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3, 4)
	a.Set(7.5, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	// Flat offset for (1,2,3) in shape (2,3,4) is 1*12+2*4+3 = 23.
	if a.Data()[23] != 7.5 {
		t.Fatal("multi-index offset wrong")
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	a.At(0, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Set(99, 3)
	if a.At(1, 1) != 99 {
		t.Fatal("Reshape should be a view")
	}
}

func TestReshapePanicsOnCountChange(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Reshape(5)
}

func TestFillApplyScale(t *testing.T) {
	a := New(4)
	a.Fill(2)
	a.Apply(func(x float64) float64 { return x * x })
	a.Scale(0.5)
	for _, v := range a.Data() {
		if v != 2 {
			t.Fatalf("got %v, want all 2", a.Data())
		}
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice([]float64{1, 1}, 2)
	b := FromSlice([]float64{2, 4}, 2)
	a.AddScaled(0.5, b)
	if a.At(0) != 2 || a.At(1) != 3 {
		t.Fatalf("AddScaled = %v, want [2 3]", a.Data())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{-3, 1, 2}, 3)
	if a.Sum() != 0 {
		t.Fatalf("Sum = %g", a.Sum())
	}
	if a.Max() != 2 || a.Min() != -3 || a.AbsMax() != 3 {
		t.Fatalf("Max/Min/AbsMax = %g/%g/%g", a.Max(), a.Min(), a.AbsMax())
	}
	if a.Mean() != 0 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	want := math.Sqrt((9.0 + 1 + 4) / 3)
	if math.Abs(a.Std()-want) > 1e-12 {
		t.Fatalf("Std = %g, want %g", a.Std(), want)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !c.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 4)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).Equal(a, 1e-12) || !MatMul(id, a).Equal(a, 1e-12) {
		t.Fatal("identity law violated")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float64{5, 6}, 2)
	y := MatVec(a, x)
	if y.At(0) != 17 || y.At(1) != 39 {
		t.Fatalf("MatVec = %v", y.Data())
	}
}

func TestDotTransposeConcat(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %g", Dot(a, b))
	}
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	mt := Transpose(m)
	if mt.Dim(0) != 3 || mt.Dim(1) != 2 || mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v", mt)
	}
	c := Concat1D(a, b)
	if c.Len() != 6 || c.At(3) != 4 {
		t.Fatalf("Concat1D = %v", c.Data())
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(m, k), New(k, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVec agrees with MatMul on a column vector.
func TestMatVecConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a, x := New(m, n), New(n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		y1 := MatVec(a, x)
		y2 := MatMul(a, x.Reshape(n, 1)).Reshape(m)
		return y1.Equal(y2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotBilinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a, b, c := New(n), New(n), New(n)
		for i := 0; i < n; i++ {
			a.Data()[i] = rng.NormFloat64()
			b.Data()[i] = rng.NormFloat64()
			c.Data()[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		// symmetry
		if math.Abs(Dot(a, b)-Dot(b, a)) > 1e-9 {
			return false
		}
		// linearity: (a + alpha*c)·b == a·b + alpha*(c·b)
		ac := a.Clone()
		ac.AddScaled(alpha, c)
		return math.Abs(Dot(ac, b)-(Dot(a, b)+alpha*Dot(c, b))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1e-9) {
		t.Fatal("Equal must compare shapes")
	}
	if New(2).Equal(New(2, 1), 1e-9) {
		t.Fatal("Equal must compare ndim")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	if s := FromSlice([]float64{1, 2}, 2).String(); s == "" {
		t.Fatal("empty String for small tensor")
	}
	if s := New(100).String(); s == "" {
		t.Fatal("empty String for large tensor")
	}
}

// TestPrecisionStringParse: every width round-trips through its
// String spelling, both long aliases parse, PrecisionOf names each
// instantiation, and anything else is rejected.
func TestPrecisionStringParse(t *testing.T) {
	for _, p := range []Precision{F64, F32} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p || !got.Valid() {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	for s, want := range map[string]Precision{"float64": F64, "float32": F32} {
		if got, err := ParsePrecision(s); err != nil || got != want {
			t.Fatalf("alias %s: %v, %v", s, got, err)
		}
	}
	if PrecisionOf[float64]() != F64 || PrecisionOf[float32]() != F32 {
		t.Fatalf("PrecisionOf: %v, %v", PrecisionOf[float64](), PrecisionOf[float32]())
	}
	for _, s := range []string{"f16", "", "F64"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("%q accepted", s)
		}
	}
	if Precision(7).Valid() {
		t.Fatal("Precision(7) valid")
	}
}
