package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	b := NewBuilder(rows, cols)
	for k := 0; k < nnz; k++ {
		b.Set(rng.IntN(rows), rng.IntN(cols), rng.Float64()*2-1)
	}
	return b.Build()
}

func denseMul(a, b *Dense) *Dense {
	ar, ac := a.Dims()
	_, bc := b.Dims()
	out := NewDense(ar, bc)
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			var s float64
			for k := 0; k < ac; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		a := randCSR(rng, 2+rng.IntN(8), 2+rng.IntN(8), rng.IntN(20))
		_, inner := a.Dims()
		b := randCSR(rng, inner, 2+rng.IntN(8), rng.IntN(20))
		got, err := Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := denseMul(a.Dense(), b.Dense())
		if !got.Dense().Equal(want, 1e-12) {
			t.Fatalf("trial %d: sparse product differs from dense reference", trial)
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewBuilder(2, 3).Build()
	b := NewBuilder(2, 2).Build()
	if _, err := Mul(a, b); err == nil {
		t.Error("expected shape error")
	}
}

func TestMulRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randCSR(rng, 6, 6, 18)
	b := randCSR(rng, 6, 6, 18)
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cols, _ := got.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not strictly ascending: %v", i, cols)
			}
		}
	}
}

func TestAddAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 2+rng.IntN(8), 2+rng.IntN(8)
		a := randCSR(rng, rows, cols, rng.IntN(20))
		b := randCSR(rng, rows, cols, rng.IntN(20))
		scale := rng.Float64()*4 - 2
		got, err := Add(a, b, scale)
		if err != nil {
			t.Fatal(err)
		}
		ad, bd := a.Dense(), b.Dense()
		want := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want.Set(i, j, ad.At(i, j)+scale*bd.At(i, j))
			}
		}
		if !got.Dense().Equal(want, 1e-12) {
			t.Fatalf("trial %d: sparse sum differs from dense reference", trial)
		}
	}
}

func TestAddShapeError(t *testing.T) {
	if _, err := Add(NewBuilder(2, 2).Build(), NewBuilder(3, 2).Build(), 1); err == nil {
		t.Error("expected shape error")
	}
}

func TestAddCancellationDropped(t *testing.T) {
	b1 := NewBuilder(1, 2)
	b1.Set(0, 0, 1)
	b2 := NewBuilder(1, 2)
	b2.Set(0, 0, 1)
	got, err := Add(b1.Build(), b2.Build(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 {
		t.Errorf("exact cancellation should drop the cell, nnz=%d", got.NNZ())
	}
}

func TestPruneRows(t *testing.T) {
	b := NewBuilder(2, 5)
	for j, v := range []float64{0.5, 0.9, 0.1, 0.7, 0.3} {
		b.Set(0, j, v)
	}
	b.Set(1, 2, 1)
	m := b.Build()
	p := PruneRows(m, 2)
	if p.RowNNZ(0) != 2 {
		t.Fatalf("row 0 nnz = %d, want 2", p.RowNNZ(0))
	}
	if p.At(0, 1) != 0.9 || p.At(0, 3) != 0.7 {
		t.Errorf("kept wrong entries: %v", p.Dense().Row(0))
	}
	cols, _ := p.Row(0)
	if cols[0] != 1 || cols[1] != 3 {
		t.Errorf("columns not ascending after prune: %v", cols)
	}
	if p.RowNNZ(1) != 1 {
		t.Error("short rows should be untouched")
	}
	if _, vals := m.Row(0); vals[0] != 0.5 || vals[1] != 0.9 || vals[4] != 0.3 {
		t.Errorf("original mutated: %v", vals)
	}
	if PruneRows(m, 0).NNZ() != 0 {
		t.Error("k=0 should empty the matrix")
	}
	if PruneRows(m, -3).NNZ() != 0 {
		t.Error("negative k should empty the matrix")
	}
}

func TestRowNormalize(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Set(0, 0, 2)
	b.Set(0, 2, 6)
	b.Set(2, 1, 5)
	m := b.Build()
	n := RowNormalize(m)
	if math.Abs(n.RowSum(0)-1) > 1e-12 || math.Abs(n.RowSum(2)-1) > 1e-12 {
		t.Errorf("rows not normalised: %v, %v", n.RowSum(0), n.RowSum(2))
	}
	if n.At(0, 2) != 0.75 {
		t.Errorf("At(0,2) = %v, want 0.75", n.At(0, 2))
	}
	if n.RowNNZ(1) != 0 {
		t.Error("empty row should stay empty")
	}
	if m.At(0, 2) != 6 {
		t.Error("original mutated")
	}
}

// Property: Mul is associative with Add in the distributive sense:
// (a+b)*c == a*c + b*c.
func TestDistributivityQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 2 + rng.IntN(6)
		a := randCSR(rng, n, n, rng.IntN(12))
		b := randCSR(rng, n, n, rng.IntN(12))
		c := randCSR(rng, n, n, rng.IntN(12))
		ab, err := Add(a, b, 1)
		if err != nil {
			return false
		}
		left, err := Mul(ab, c)
		if err != nil {
			return false
		}
		ac, err := Mul(a, c)
		if err != nil {
			return false
		}
		bc, err := Mul(b, c)
		if err != nil {
			return false
		}
		right, err := Add(ac, bc, 1)
		if err != nil {
			return false
		}
		return left.Dense().Equal(right.Dense(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: pruning keeps the row-wise top-k by value.
func TestPruneRowsQuick(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 88))
		m := randCSR(rng, 1+rng.IntN(6), 1+rng.IntN(10), rng.IntN(30))
		k := int(kRaw) % 8
		p := PruneRows(m, k)
		for i := 0; i < m.Rows(); i++ {
			origCols, origVals := m.Row(i)
			want := len(origCols)
			if want > k {
				want = k
			}
			if p.RowNNZ(i) != want {
				return false
			}
			// Every kept value must be >= every dropped value.
			kept := make(map[int32]bool)
			cols, _ := p.Row(i)
			minKept := math.Inf(1)
			for _, c := range cols {
				kept[c] = true
				if v := m.At(i, int(c)); v < minKept {
					minKept = v
				}
			}
			for n, c := range origCols {
				if !kept[c] && origVals[n] > minKept {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := randCSR(rng, 500, 500, 5000)
	c := randCSR(rng, 500, 500, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mul(a, c); err != nil {
			b.Fatal(err)
		}
	}
}
