package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d, %d), want (3, 4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d, %d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
	if m.NNZ() != 0 {
		t.Errorf("NNZ() = %d, want 0", m.NNZ())
	}
}

func TestDenseSetAtAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1.5)
	m.Set(1, 2, -2)
	m.Add(1, 2, 0.5)
	if got := m.At(0, 0); got != 1.5 {
		t.Errorf("At(0,0) = %v, want 1.5", got)
	}
	if got := m.At(1, 2); got != -1.5 {
		t.Errorf("At(1,2) = %v, want -1.5", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %v, want 0", got)
	}
}

func TestDenseOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	cases := []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, 2) },
		func() { m.At(-1, 0) },
		func() { m.Set(0, -1, 1) },
		func() { m.Row(2) },
		func() { m.Row(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseData(t *testing.T) {
	m, err := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("NewDenseData: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewDenseData(2, 2, []float64{1, 2, 3}); err == nil {
		t.Error("expected error for wrong data length")
	}
}

func TestDenseRowShared(t *testing.T) {
	m := NewDense(2, 2)
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Errorf("Row mutation not reflected: At(1,0) = %v, want 7", m.At(1, 0))
	}
}

func TestDenseClone(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3)
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 3 {
		t.Errorf("clone mutation leaked: At(0,1) = %v, want 3", m.At(0, 1))
	}
	if c.At(0, 1) != 9 {
		t.Errorf("clone At(0,1) = %v, want 9", c.At(0, 1))
	}
}

func TestDenseRowSumMaxScale(t *testing.T) {
	m := NewDense(2, 3)
	for j, v := range []float64{1, 5, 3} {
		m.Set(0, j, v)
	}
	if got := m.RowSum(0); got != 9 {
		t.Errorf("RowSum(0) = %v, want 9", got)
	}
	if got := m.RowMax(0); got != 5 {
		t.Errorf("RowMax(0) = %v, want 5", got)
	}
	if got := m.RowSum(1); got != 0 {
		t.Errorf("RowSum(1) = %v, want 0", got)
	}
}

func TestDenseRowMaxEmptyCols(t *testing.T) {
	m := NewDense(2, 0)
	if got := m.RowMax(0); got != 0 {
		t.Errorf("RowMax on 0-column matrix = %v, want 0", got)
	}
}

func TestDenseFillNNZDensity(t *testing.T) {
	m, err := NewDenseData(2, 5, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 10 {
		t.Errorf("NNZ = %d, want 10", m.NNZ())
	}
	if m.Density() != 1 {
		t.Errorf("Density = %v, want 1", m.Density())
	}
	m.Set(0, 0, 0)
	if m.NNZ() != 9 {
		t.Errorf("NNZ after zeroing = %d, want 9", m.NNZ())
	}
	empty := NewDense(0, 0)
	if empty.Density() != 0 {
		t.Errorf("empty Density = %v, want 0", empty.Density())
	}
}

func TestDenseEqualAndMaxAbsDiff(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	a.Set(0, 0, 1)
	b.Set(0, 0, 1.0000001)
	if !a.Equal(b, 1e-6) {
		t.Error("Equal with tol 1e-6 = false, want true")
	}
	if a.Equal(b, 1e-9) {
		t.Error("Equal with tol 1e-9 = true, want false")
	}
	if a.Equal(NewDense(2, 3), 1) {
		t.Error("Equal across shapes = true, want false")
	}
	if d := a.MaxAbsDiff(b); math.Abs(d-1e-7) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v, want 1e-7", d)
	}
}

func TestDotSumScaleNormalize(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Sum(a); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Dot is symmetric and bilinear in scaling.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip degenerate float inputs
			}
		}
		ab := Dot(a, b)
		ba := Dot(b, a)
		return math.Abs(ab-ba) <= 1e-9*(1+math.Abs(ab))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
