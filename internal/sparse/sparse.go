// Package sparse implements the sparse matrix substrate used by every
// decomposition model in this repository: coordinate (COO) assembly,
// compressed sparse row (CSR) and column (CSC) storage, structural
// operations (transpose, pattern symmetrization), per-row/column nonzero
// statistics, and a serial matrix-vector product used as the ground truth
// for the distributed SpMV simulator.
//
// All matrices are square or rectangular with 0-based indices. Only the
// structure matters for decomposition, but numeric values are carried so
// that the SpMV simulator can verify decompositions numerically.
package sparse

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Coord identifies a matrix entry by row and column.
type Coord struct {
	Row, Col int
}

// Entry is a single (row, col, value) triplet.
type Entry struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format matrix under assembly. Duplicate entries are
// allowed during assembly and are summed when compiling to CSR.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Add appends the entry (i, j, v). It panics if the coordinate is out of
// bounds; assembly bugs should fail loudly and early.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Add (%d,%d) out of bounds for %dx%d", i, j, c.Rows, c.Cols))
	}
	c.Entries = append(c.Entries, Entry{Row: i, Col: j, Val: v})
}

// NNZ returns the number of assembled triplets (before duplicate merging).
func (c *COO) NNZ() int { return len(c.Entries) }

// CSR is a compressed-sparse-row matrix. Column indices within each row
// are sorted ascending and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // length Rows+1
	ColIdx     []int     // length NNZ
	Val        []float64 // length NNZ
}

// CSC is a compressed-sparse-column matrix. Row indices within each
// column are sorted ascending and unique.
type CSC struct {
	Rows, Cols int
	ColPtr     []int     // length Cols+1
	RowIdx     []int     // length NNZ
	Val        []float64 // length NNZ
}

// ErrDimension reports an invalid or mismatched dimension.
var ErrDimension = errors.New("sparse: invalid dimension")

// ToCSR compiles the COO matrix to CSR, summing duplicate entries.
func (c *COO) ToCSR() *CSR {
	m := &CSR{Rows: c.Rows, Cols: c.Cols}
	m.RowPtr = make([]int, c.Rows+1)
	if len(c.Entries) == 0 {
		m.ColIdx = []int{}
		m.Val = []float64{}
		return m
	}
	// Count entries per row, then bucket, then sort each row and merge
	// duplicates. Counting sort by row keeps this O(nnz + rows + per-row
	// sort) instead of a global comparison sort.
	counts := make([]int, c.Rows)
	for _, e := range c.Entries {
		counts[e.Row]++
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] = m.RowPtr[i] + counts[i]
	}
	cols := make([]int, len(c.Entries))
	vals := make([]float64, len(c.Entries))
	next := make([]int, c.Rows)
	copy(next, m.RowPtr[:c.Rows])
	for _, e := range c.Entries {
		p := next[e.Row]
		cols[p] = e.Col
		vals[p] = e.Val
		next[e.Row]++
	}
	// Sort within each row and merge duplicates in place.
	outCols := cols[:0]
	outVals := vals[:0]
	newPtr := make([]int, c.Rows+1)
	for i := 0; i < c.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		row := rowSlice{cols: cols[lo:hi], vals: vals[lo:hi]}
		sort.Sort(row)
		newPtr[i] = len(outCols)
		for k := lo; k < hi; k++ {
			if n := len(outCols); n > newPtr[i] && outCols[n-1] == cols[k] {
				outVals[n-1] += vals[k]
			} else {
				outCols = append(outCols, cols[k])
				outVals = append(outVals, vals[k])
			}
		}
	}
	newPtr[c.Rows] = len(outCols)
	m.RowPtr = newPtr
	m.ColIdx = append([]int(nil), outCols...)
	m.Val = append([]float64(nil), outVals...)
	return m
}

type rowSlice struct {
	cols []int
	vals []float64
}

func (r rowSlice) Len() int           { return len(r.cols) }
func (r rowSlice) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowSlice) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// Row returns the column indices and values of row i as sub-slices of the
// underlying storage. Callers must not modify them.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Col returns the row indices and values of column j as sub-slices of the
// underlying storage. Callers must not modify them.
func (m *CSC) Col(j int) (rows []int, vals []float64) {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	return m.RowIdx[lo:hi], m.Val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// ColNNZ returns the number of stored entries in column j.
func (m *CSC) ColNNZ(j int) int { return m.ColPtr[j+1] - m.ColPtr[j] }

// Find returns the storage position k of entry (i, j), so that
// ColIdx[k] == j and Val[k] is its value, and whether it is stored.
// Lookup is a binary search within row i.
func (m *CSR) Find(i, j int) (k int, ok bool) {
	k, ok = slices.BinarySearch(m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]], j)
	return m.RowPtr[i] + k, ok
}

// At returns the value at (i, j), or 0 if the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	if k, ok := m.Find(i, j); ok {
		return m.Val[k]
	}
	return 0
}

// Has reports whether entry (i, j) is structurally present.
func (m *CSR) Has(i, j int) bool {
	_, ok := m.Find(i, j)
	return ok
}

// ToCSC converts the matrix to compressed-sparse-column form.
func (m *CSR) ToCSC() *CSC {
	t := &CSC{Rows: m.Rows, Cols: m.Cols}
	t.ColPtr = make([]int, m.Cols+1)
	t.RowIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	for _, j := range m.ColIdx {
		t.ColPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.ColPtr[j+1] += t.ColPtr[j]
	}
	next := make([]int, m.Cols)
	copy(next, t.ColPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.RowIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// ToCSR converts the matrix to compressed-sparse-row form.
func (m *CSC) ToCSR() *CSR {
	t := &CSR{Rows: m.Rows, Cols: m.Cols}
	t.RowPtr = make([]int, m.Rows+1)
	t.ColIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	for _, i := range m.RowIdx {
		t.RowPtr[i+1]++
	}
	for i := 0; i < m.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int, m.Rows)
	copy(next, t.RowPtr[:m.Rows])
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			i := m.RowIdx[k]
			p := next[i]
			t.ColIdx[p] = j
			t.Val[p] = m.Val[k]
			next[i]++
		}
	}
	return t
}

// ToCOO expands the matrix back to triplet form (sorted by row, then
// column).
func (m *CSR) ToCOO() *COO {
	c := NewCOO(m.Rows, m.Cols)
	c.Entries = make([]Entry, 0, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c.Entries = append(c.Entries, Entry{Row: i, Col: m.ColIdx[k], Val: m.Val[k]})
		}
	}
	return c
}

// Transpose returns the transpose of m as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	c := m.ToCSC()
	return &CSR{
		Rows:   c.Cols,
		Cols:   c.Rows,
		RowPtr: c.ColPtr,
		ColIdx: c.RowIdx,
		Val:    c.Val,
	}
}

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	return &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
}

// Validate checks the structural invariants of the CSR matrix: monotone
// row pointers, in-bounds sorted unique column indices, consistent
// lengths. It returns a descriptive error for the first violation found.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("%w: %dx%d", ErrDimension, m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[m.Rows] != len(m.ColIdx) {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want nnz %d", m.RowPtr[m.Rows], len(m.ColIdx))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: column %d out of bounds in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: row %d columns not sorted/unique at position %d", i, k)
			}
			prev = j
		}
	}
	return nil
}

// Equal reports whether m and other have identical structure and values.
func (m *CSR) Equal(other *CSR) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols || m.NNZ() != other.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != other.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != other.ColIdx[k] || m.Val[k] != other.Val[k] {
			return false
		}
	}
	return true
}

// PatternEqual reports whether m and other have identical structure,
// ignoring values.
func (m *CSR) PatternEqual(other *CSR) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols || m.NNZ() != other.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != other.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != other.ColIdx[k] {
			return false
		}
	}
	return true
}

// String returns a compact description of the matrix (not its contents).
func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}

// FromEntries assembles a CSR matrix directly from a triplet slice.
func FromEntries(rows, cols int, entries []Entry) *CSR {
	c := NewCOO(rows, cols)
	c.Entries = append(c.Entries, entries...)
	return c.ToCSR()
}

// Dense expands m into a dense row-major matrix. Intended for tests and
// tiny examples only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i][m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n}
	m.RowPtr = make([]int, n+1)
	m.ColIdx = make([]int, n)
	m.Val = make([]float64, n)
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}
