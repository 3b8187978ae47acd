package sparse

import (
	"fmt"
	"math"
)

// MulVec computes y = A·x serially. It panics on dimension mismatch.
// This is the reference kernel the distributed simulator is validated
// against.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = sum
	}
}

// SymmetrizePattern returns the structure of A + Aᵀ for a square matrix,
// with values a_ij + a_ji (structural zeros treated as 0). The result is
// the adjacency structure used by the standard graph model.
func (m *CSR) SymmetrizePattern() *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("sparse: SymmetrizePattern needs a square matrix, got %dx%d", m.Rows, m.Cols))
	}
	t := m.Transpose()
	coo := NewCOO(m.Rows, m.Cols)
	coo.Entries = make([]Entry, 0, 2*m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			coo.Add(i, m.ColIdx[k], m.Val[k])
		}
		for k := t.RowPtr[i]; k < t.RowPtr[i+1]; k++ {
			coo.Add(i, t.ColIdx[k], t.Val[k])
		}
	}
	return coo.ToCSR()
}

// IsStructurallySymmetric reports whether a_ij is stored exactly when
// a_ji is stored.
func (m *CSR) IsStructurallySymmetric() bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	return m.PatternEqual(&CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: t.RowPtr, ColIdx: t.ColIdx, Val: t.Val})
}

// Scale multiplies every stored value by s, in place.
func (m *CSR) Scale(s float64) {
	for k := range m.Val {
		m.Val[k] *= s
	}
}

// Stats summarizes the nonzero structure of a matrix in the form the
// paper's Table 1 reports: total nonzeros and the minimum, maximum and
// average number of nonzeros per row and per column. For square matrices
// the paper pools rows and columns ("per row/col"); Pooled* fields report
// that pooled view.
type Stats struct {
	Rows, Cols int
	NNZ        int

	RowMin, RowMax int
	RowAvg         float64
	ColMin, ColMax int
	ColAvg         float64

	// Pooled min/max/avg over the union of all row counts and all
	// column counts, matching Table 1's "per row/col" columns.
	PooledMin, PooledMax int
	PooledAvg            float64
}

// ComputeStats returns nonzero-structure statistics for m.
func (m *CSR) ComputeStats() Stats {
	s := Stats{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}
	if m.Rows == 0 || m.Cols == 0 {
		return s
	}
	s.RowMin = math.MaxInt
	for i := 0; i < m.Rows; i++ {
		n := m.RowNNZ(i)
		if n < s.RowMin {
			s.RowMin = n
		}
		if n > s.RowMax {
			s.RowMax = n
		}
	}
	s.RowAvg = float64(m.NNZ()) / float64(m.Rows)
	colCount := make([]int, m.Cols)
	for _, j := range m.ColIdx {
		colCount[j]++
	}
	s.ColMin = math.MaxInt
	for _, n := range colCount {
		if n < s.ColMin {
			s.ColMin = n
		}
		if n > s.ColMax {
			s.ColMax = n
		}
	}
	s.ColAvg = float64(m.NNZ()) / float64(m.Cols)
	s.PooledMin = s.RowMin
	if s.ColMin < s.PooledMin {
		s.PooledMin = s.ColMin
	}
	s.PooledMax = s.RowMax
	if s.ColMax > s.PooledMax {
		s.PooledMax = s.ColMax
	}
	s.PooledAvg = (s.RowAvg + s.ColAvg) / 2
	return s
}

// EmptyRows returns the indices of rows with no stored entries.
func (m *CSR) EmptyRows() []int {
	var out []int
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// EmptyCols returns the indices of columns with no stored entries.
func (m *CSR) EmptyCols() []int {
	colCount := make([]int, m.Cols)
	for _, j := range m.ColIdx {
		colCount[j]++
	}
	var out []int
	for j, n := range colCount {
		if n == 0 {
			out = append(out, j)
		}
	}
	return out
}

// EnsureNonemptyRowsCols adds a unit diagonal entry to every empty row
// and column of a square matrix, returning a new matrix (or m itself if
// nothing was empty). Decomposition models require every row and column
// net to have at least one pin.
func (m *CSR) EnsureNonemptyRowsCols() *CSR {
	if m.Rows != m.Cols {
		panic("sparse: EnsureNonemptyRowsCols needs a square matrix")
	}
	er, ec := m.EmptyRows(), m.EmptyCols()
	if len(er) == 0 && len(ec) == 0 {
		return m
	}
	need := map[int]bool{}
	for _, i := range er {
		need[i] = true
	}
	for _, j := range ec {
		need[j] = true
	}
	coo := m.ToCOO()
	for d := range need {
		if !m.Has(d, d) {
			coo.Add(d, d, 1)
		}
	}
	return coo.ToCSR()
}
