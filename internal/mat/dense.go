// Package mat provides the small numeric substrate the trust framework is
// built on: flat row-major dense matrices, CSR sparse matrices with a
// dictionary-of-keys builder, and top-k selection.
//
// Go's standard library has no numeric matrix support, and this project is
// stdlib-only, so the handful of operations the paper's pipeline needs are
// implemented here directly. All types use contiguous backing slices for
// cache-friendly row iteration, which is the dominant access pattern in the
// pipeline (derived-trust rows are computed one user at a time).
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned when matrix dimensions do not line up for an
// operation or a constructor receives non-positive dimensions.
var ErrShape = errors.New("mat: dimension mismatch")

// Dense is a dense matrix stored in row-major order. The zero value is an
// empty 0x0 matrix. Dense is not safe for concurrent mutation; concurrent
// reads are safe.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates a rows x cols matrix of zeros. It panics if either
// dimension is negative.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewDense(%d, %d): negative dimension", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData creates a rows x cols matrix backed by data, which must have
// exactly rows*cols elements. The matrix takes ownership of the slice.
func NewDenseData(rows, cols int, data []float64) (*Dense, error) {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d x %d with %d elements", ErrShape, rows, cols, len(data))
	}
	return &Dense{rows: rows, cols: cols, data: data}, nil
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's backing storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// RowSum returns the sum of row i.
func (m *Dense) RowSum(i int) float64 {
	var s float64
	for _, v := range m.Row(i) {
		s += v
	}
	return s
}

// RowMax returns the maximum value in row i, or 0 if the matrix has no
// columns.
func (m *Dense) RowMax(i int) float64 {
	row := m.Row(i)
	if len(row) == 0 {
		return 0
	}
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// NNZ returns the number of non-zero elements.
func (m *Dense) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Density returns NNZ divided by the total number of cells, or 0 for an
// empty matrix.
func (m *Dense) Density() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.rows*m.cols)
}

// Equal reports whether m and n have the same shape and all elements are
// within tol of each other.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and n. It panics if shapes differ.
func (m *Dense) MaxAbsDiff(n *Dense) float64 {
	if m.rows != n.rows || m.cols != n.cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i, v := range m.data {
		if d := math.Abs(v - n.data[i]); d > max {
			max = d
		}
	}
	return max
}

// Dot returns the dot product of equal-length vectors a and b. It panics if
// the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Sum returns the sum of the elements of a.
func Sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}
