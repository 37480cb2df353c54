package mat

import (
	"fmt"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row form. It is immutable
// after construction; build one with a Builder. The zero value is an empty
// 0x0 matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int32   // len rows+1; row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx     []int32   // column of each stored element, sorted within a row
	vals       []float64 // value of each stored element
}

// Builder accumulates entries for a CSR matrix. Entries may be added in any
// order; adding to the same cell twice accumulates the values. The zero
// value is not usable; create one with NewBuilder.
type Builder struct {
	rows, cols int
	cells      map[uint64]float64
}

// NewBuilder returns a builder for a rows x cols sparse matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewBuilder(%d, %d): negative dimension", rows, cols))
	}
	return &Builder{rows: rows, cols: cols, cells: make(map[uint64]float64)}
}

func (b *Builder) key(i, j int) uint64 {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("mat: builder index (%d, %d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// Add accumulates v into cell (i, j).
func (b *Builder) Add(i, j int, v float64) {
	b.cells[b.key(i, j)] += v
}

// Set assigns v to cell (i, j), replacing any accumulated value.
func (b *Builder) Set(i, j int, v float64) {
	b.cells[b.key(i, j)] = v
}

// Len returns the number of distinct cells currently stored, including any
// that have accumulated to exactly zero.
func (b *Builder) Len() int { return len(b.cells) }

// Build freezes the accumulated cells into a CSR matrix. Cells whose value
// is exactly zero are dropped. The builder may be reused afterwards; it is
// left empty.
func (b *Builder) Build() *CSR {
	type entry struct {
		i, j int32
		v    float64
	}
	entries := make([]entry, 0, len(b.cells))
	for k, v := range b.cells {
		if v == 0 {
			continue
		}
		entries = append(entries, entry{i: int32(k >> 32), j: int32(uint32(k)), v: v})
	}
	sort.Slice(entries, func(a, c int) bool {
		if entries[a].i != entries[c].i {
			return entries[a].i < entries[c].i
		}
		return entries[a].j < entries[c].j
	})
	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int32, b.rows+1),
		colIdx: make([]int32, len(entries)),
		vals:   make([]float64, len(entries)),
	}
	for n, e := range entries {
		m.rowPtr[e.i+1]++
		m.colIdx[n] = e.j
		m.vals[n] = e.v
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	b.cells = make(map[uint64]float64)
	return m
}

// NewCSRFromRows builds a CSR matrix directly from per-row column/value
// pairs. rows[i] lists the columns of row i and vals[i] the matching values;
// columns within a row must be unique but may be unsorted. vals may be nil,
// in which case every stored element has value 1 (a boolean adjacency
// matrix).
func NewCSRFromRows(numRows, numCols int, rows [][]int32, vals [][]float64) (*CSR, error) {
	if len(rows) != numRows {
		return nil, fmt.Errorf("%w: %d row lists for %d rows", ErrShape, len(rows), numRows)
	}
	if vals != nil && len(vals) != numRows {
		return nil, fmt.Errorf("%w: %d value lists for %d rows", ErrShape, len(vals), numRows)
	}
	nnz := 0
	for i, r := range rows {
		if vals != nil && len(vals[i]) != len(r) {
			return nil, fmt.Errorf("%w: row %d has %d cols but %d vals", ErrShape, i, len(r), len(vals[i]))
		}
		nnz += len(r)
	}
	m := &CSR{
		rows:   numRows,
		cols:   numCols,
		rowPtr: make([]int32, numRows+1),
		colIdx: make([]int32, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	type cv struct {
		c int32
		v float64
	}
	var scratch []cv
	for i, r := range rows {
		scratch = scratch[:0]
		for k, c := range r {
			if c < 0 || int(c) >= numCols {
				return nil, fmt.Errorf("%w: row %d column %d out of range %d", ErrShape, i, c, numCols)
			}
			v := 1.0
			if vals != nil {
				v = vals[i][k]
			}
			scratch = append(scratch, cv{c: c, v: v})
		}
		sort.Slice(scratch, func(a, b int) bool { return scratch[a].c < scratch[b].c })
		for k := 1; k < len(scratch); k++ {
			if scratch[k].c == scratch[k-1].c {
				return nil, fmt.Errorf("mat: row %d has duplicate column %d", i, scratch[k].c)
			}
		}
		for _, e := range scratch {
			m.colIdx = append(m.colIdx, e.c)
			m.vals = append(m.vals, e.v)
		}
		m.rowPtr[i+1] = int32(len(m.colIdx))
	}
	return m, nil
}

// Dims returns the number of rows and columns.
func (m *CSR) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) elements.
func (m *CSR) NNZ() int { return len(m.vals) }

// Density returns NNZ divided by rows*cols, or 0 for an empty matrix.
func (m *CSR) Density() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.rows) * float64(m.cols))
}

// Row returns the stored columns and values of row i. The returned slices
// share the matrix's backing storage and must not be modified. Columns are
// in ascending order.
func (m *CSR) Row(i int) (cols []int32, vals []float64) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// RowNNZ returns the number of stored elements in row i.
func (m *CSR) RowNNZ(i int) int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return int(m.rowPtr[i+1] - m.rowPtr[i])
}

// At returns the value at (i, j), which is 0 if the cell is not stored.
// Lookup is a binary search within row i.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range %d", j, m.cols))
	}
	k := sort.Search(len(cols), func(n int) bool { return cols[n] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// Has reports whether cell (i, j) is stored.
func (m *CSR) Has(i, j int) bool {
	cols, _ := m.Row(i)
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range %d", j, m.cols))
	}
	k := sort.Search(len(cols), func(n int) bool { return cols[n] >= int32(j) })
	return k < len(cols) && cols[k] == int32(j)
}

// Transpose returns a new CSR matrix that is the transpose of m.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int32, m.cols+1),
		colIdx: make([]int32, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < m.cols; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	next := make([]int32, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.colIdx[k]
			pos := next[c]
			t.colIdx[pos] = int32(i)
			t.vals[pos] = m.vals[k]
			next[c]++
		}
	}
	return t
}

// RowSum returns the sum of the stored values of row i.
func (m *CSR) RowSum(i int) float64 {
	_, vals := m.Row(i)
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// Dense expands m into a dense matrix. Intended for tests and small
// matrices; the result has m.Rows() x m.Cols() cells.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		cols, vals := m.Row(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return d
}
