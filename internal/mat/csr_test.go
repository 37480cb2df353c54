package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBuilderBuildBasic(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Set(0, 1, 2)
	b.Set(2, 0, -1)
	b.Add(2, 0, 2) // overwritten cell accumulates on top of Set
	b.Add(1, 3, 5)
	m := b.Build()
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = (%d, %d), want (3, 4)", r, c)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(0, 1); got != 2 {
		t.Errorf("At(0,1) = %v, want 2", got)
	}
	if got := m.At(2, 0); got != 1 {
		t.Errorf("At(2,0) = %v, want 1", got)
	}
	if got := m.At(1, 3); got != 5 {
		t.Errorf("At(1,3) = %v, want 5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
}

func TestBuilderDropsExactZeros(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, -1)
	b.Set(1, 1, 3)
	m := b.Build()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (zero-accumulated cell should be dropped)", m.NNZ())
	}
	if m.Has(0, 0) {
		t.Error("Has(0,0) = true, want false")
	}
}

func TestBuilderReuseAfterBuild(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Set(0, 0, 1)
	_ = b.Build()
	if b.Len() != 0 {
		t.Fatalf("Len after Build = %d, want 0", b.Len())
	}
	b.Set(1, 1, 2)
	m := b.Build()
	if m.NNZ() != 1 || m.At(1, 1) != 2 {
		t.Errorf("reused builder produced wrong matrix: NNZ=%d At(1,1)=%v", m.NNZ(), m.At(1, 1))
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Set(2, 0, 1)
}

func TestCSRRowSortedAndShared(t *testing.T) {
	b := NewBuilder(1, 5)
	b.Set(0, 4, 4)
	b.Set(0, 1, 1)
	b.Set(0, 3, 3)
	m := b.Build()
	cols, vals := m.Row(0)
	want := []int32{1, 3, 4}
	if len(cols) != 3 {
		t.Fatalf("row has %d entries, want 3", len(cols))
	}
	for i, c := range want {
		if cols[i] != c {
			t.Errorf("cols[%d] = %d, want %d", i, cols[i], c)
		}
		if vals[i] != float64(c) {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], float64(c))
		}
	}
}

func TestNewCSRFromRows(t *testing.T) {
	m, err := NewCSRFromRows(3, 3, [][]int32{{2, 0}, {}, {1}}, nil)
	if err != nil {
		t.Fatalf("NewCSRFromRows: %v", err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	for _, c := range []struct{ i, j int }{{0, 0}, {0, 2}, {2, 1}} {
		if m.At(c.i, c.j) != 1 {
			t.Errorf("At(%d,%d) = %v, want 1", c.i, c.j, m.At(c.i, c.j))
		}
	}
	cols, _ := m.Row(0)
	if cols[0] != 0 || cols[1] != 2 {
		t.Errorf("row 0 cols = %v, want sorted [0 2]", cols)
	}
}

func TestNewCSRFromRowsErrors(t *testing.T) {
	if _, err := NewCSRFromRows(2, 2, [][]int32{{0}}, nil); err == nil {
		t.Error("expected error for wrong number of row lists")
	}
	if _, err := NewCSRFromRows(1, 2, [][]int32{{0, 0}}, nil); err == nil {
		t.Error("expected error for duplicate column")
	}
	if _, err := NewCSRFromRows(1, 2, [][]int32{{5}}, nil); err == nil {
		t.Error("expected error for out-of-range column")
	}
	if _, err := NewCSRFromRows(1, 2, [][]int32{{0}}, [][]float64{{1, 2}}); err == nil {
		t.Error("expected error for vals length mismatch")
	}
	if _, err := NewCSRFromRows(1, 2, [][]int32{{0}}, [][]float64{}); err == nil {
		t.Error("expected error for wrong number of value lists")
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	b := NewBuilder(7, 5)
	for n := 0; n < 15; n++ {
		b.Set(rng.IntN(7), rng.IntN(5), rng.Float64()*10-5)
	}
	m := b.Build()
	tt := m.Transpose().Transpose()
	if !m.Dense().Equal(tt.Dense(), 0) {
		t.Error("Transpose twice does not round-trip")
	}
	tr := m.Transpose()
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("At(%d,%d)=%v but transpose At(%d,%d)=%v", i, j, m.At(i, j), j, i, tr.At(j, i))
			}
		}
	}
}

func TestCSRDensityRowNNZRowSum(t *testing.T) {
	b := NewBuilder(2, 4)
	b.Set(0, 0, 1)
	b.Set(0, 3, 2)
	m := b.Build()
	if got := m.Density(); got != 0.25 {
		t.Errorf("Density = %v, want 0.25", got)
	}
	if got := m.RowNNZ(0); got != 2 {
		t.Errorf("RowNNZ(0) = %d, want 2", got)
	}
	if got := m.RowNNZ(1); got != 0 {
		t.Errorf("RowNNZ(1) = %d, want 0", got)
	}
	if got := m.RowSum(0); got != 3 {
		t.Errorf("RowSum(0) = %v, want 3", got)
	}
	empty := NewBuilder(0, 0).Build()
	if empty.Density() != 0 {
		t.Errorf("empty Density = %v, want 0", empty.Density())
	}
}

// Property: building a CSR from random cells then reading every cell back
// reproduces the reference map exactly.
func TestCSRRoundTripQuick(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		rows, cols := 1+rng.IntN(10), 1+rng.IntN(10)
		ref := make(map[[2]int]float64)
		b := NewBuilder(rows, cols)
		for k := 0; k < int(n); k++ {
			i, j := rng.IntN(rows), rng.IntN(cols)
			v := rng.Float64()*2 - 1
			b.Set(i, j, v)
			if v == 0 {
				delete(ref, [2]int{i, j})
			} else {
				ref[[2]int{i, j}] = v
			}
		}
		m := b.Build()
		if m.NNZ() != len(ref) {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.At(i, j) != ref[[2]int{i, j}] {
					return false
				}
				if m.Has(i, j) != (ref[[2]int{i, j}] != 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: transpose preserves NNZ and swaps row/col sums.
func TestCSRTransposeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		rows, cols := 1+rng.IntN(8), 1+rng.IntN(8)
		b := NewBuilder(rows, cols)
		for k := 0; k < rng.IntN(20); k++ {
			b.Set(rng.IntN(rows), rng.IntN(cols), 1+rng.Float64())
		}
		m := b.Build()
		tr := m.Transpose()
		if tr.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < rows; i++ {
			var colSumOfTr float64
			for j := 0; j < cols; j++ {
				colSumOfTr += tr.At(j, i)
			}
			if math.Abs(colSumOfTr-m.RowSum(i)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
