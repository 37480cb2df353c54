package mat

import "fmt"

// Mul computes the sparse matrix product a*b using Gustavson's row-wise
// algorithm. It returns an error when the inner dimensions disagree.
//
// The product of two trust matrices can fill in quickly (co-citation
// operators square the matrix); callers that iterate products should prune
// with PruneRows between steps to keep the result tractable.
func Mul(a, b *CSR) (*CSR, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := &CSR{
		rows:   a.rows,
		cols:   b.cols,
		rowPtr: make([]int32, a.rows+1),
	}
	// Gustavson: accumulate each output row in a dense scratch indexed by
	// column, tracking the touched columns for sparse reset.
	acc := make([]float64, b.cols)
	touched := make([]int32, 0, 64)
	seen := make([]bool, b.cols)
	for i := 0; i < a.rows; i++ {
		touched = touched[:0]
		aCols, aVals := a.Row(i)
		for k, j := range aCols {
			av := aVals[k]
			bCols, bVals := b.Row(int(j))
			for n, c := range bCols {
				if !seen[c] {
					seen[c] = true
					touched = append(touched, c)
				}
				acc[c] += av * bVals[n]
			}
		}
		// Emit the row in ascending column order.
		sortInt32s(touched)
		for _, c := range touched {
			if v := acc[c]; v != 0 {
				out.colIdx = append(out.colIdx, c)
				out.vals = append(out.vals, v)
			}
			acc[c] = 0
			seen[c] = false
		}
		out.rowPtr[i+1] = int32(len(out.colIdx))
	}
	return out, nil
}

// Add computes a + scale*b element-wise. Shapes must match.
func Add(a, b *CSR, scale float64) (*CSR, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := &CSR{rows: a.rows, cols: a.cols, rowPtr: make([]int32, a.rows+1)}
	for i := 0; i < a.rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) || y < len(bc) {
			switch {
			case y >= len(bc) || (x < len(ac) && ac[x] < bc[y]):
				out.colIdx = append(out.colIdx, ac[x])
				out.vals = append(out.vals, av[x])
				x++
			case x >= len(ac) || bc[y] < ac[x]:
				out.colIdx = append(out.colIdx, bc[y])
				out.vals = append(out.vals, scale*bv[y])
				y++
			default:
				if v := av[x] + scale*bv[y]; v != 0 {
					out.colIdx = append(out.colIdx, ac[x])
					out.vals = append(out.vals, v)
				}
				x++
				y++
			}
		}
		out.rowPtr[i+1] = int32(len(out.colIdx))
	}
	return out, nil
}

// PruneRows keeps only the k largest-valued entries of each row (ties
// broken toward smaller columns), returning a new matrix. It bounds the
// fill-in of iterated sparse products.
func PruneRows(m *CSR, k int) *CSR {
	out := &CSR{rows: m.rows, cols: m.cols, rowPtr: make([]int32, m.rows+1)}
	var sel []float64
	for i := 0; i < m.rows; i++ {
		cols, vals := m.Row(i)
		// SelectTop partitions its argument, and Row shares m's storage.
		sel = append(sel[:0], vals...)
		thresh, ties := SelectTop(sel, k)
		for p, v := range vals {
			if v > thresh || (v == thresh && ties > 0) {
				if v == thresh {
					ties--
				}
				out.colIdx = append(out.colIdx, cols[p])
				out.vals = append(out.vals, v)
			}
		}
		out.rowPtr[i+1] = int32(len(out.colIdx))
	}
	return out
}

// RowNormalize scales each row of m to sum to 1 (rows summing to zero are
// left as-is), returning a new matrix.
func RowNormalize(m *CSR) *CSR {
	out := &CSR{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: append([]int32(nil), m.rowPtr...),
		colIdx: append([]int32(nil), m.colIdx...),
		vals:   append([]float64(nil), m.vals...),
	}
	for i := 0; i < m.rows; i++ {
		lo, hi := out.rowPtr[i], out.rowPtr[i+1]
		var s float64
		for _, v := range out.vals[lo:hi] {
			s += v
		}
		if s == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			out.vals[k] /= s
		}
	}
	return out
}

func sortInt32s(xs []int32) {
	// Insertion sort: rows touched per product are short and nearly
	// sorted; avoids sort.Slice closure overhead in the hot loop.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
