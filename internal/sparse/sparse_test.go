package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"finegrain/internal/rng"
)

// randomCSR builds a random matrix for property tests.
func randomCSR(r *rng.RNG, maxDim, maxNNZ int) *CSR {
	rows := 1 + r.Intn(maxDim)
	cols := 1 + r.Intn(maxDim)
	coo := NewCOO(rows, cols)
	nnz := r.Intn(maxNNZ)
	for k := 0; k < nnz; k++ {
		coo.Add(r.Intn(rows), r.Intn(cols), float64(r.Intn(19))-9)
	}
	return coo.ToCSR()
}

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(2, 1, 5)
	coo.Add(0, 0, 1)
	coo.Add(2, 0, 2)
	coo.Add(0, 2, 3)
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	if m.At(2, 1) != 5 || m.At(0, 0) != 1 || m.At(2, 0) != 2 || m.At(0, 2) != 3 {
		t.Fatal("values misplaced")
	}
	if m.At(1, 1) != 0 {
		t.Fatal("missing entry should read 0")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(1, 1, 2)
	coo.Add(1, 1, 3)
	coo.Add(1, 1, -1)
	m := coo.ToCSR()
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1 after merging", m.NNZ())
	}
	if m.At(1, 1) != 4 {
		t.Fatalf("merged value = %v, want 4", m.At(1, 1))
	}
}

func TestCOOAddOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestEmptyMatrix(t *testing.T) {
	m := NewCOO(4, 5).ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Fatal("empty matrix has entries")
	}
	tr := m.Transpose()
	if tr.Rows != 5 || tr.Cols != 4 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
}

func TestRoundTripCSRCSC(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint64) bool {
		m := randomCSR(rng.New(seed), 30, 200)
		back := m.ToCSC().ToCSR()
		return m.Equal(back)
	}, &quick.Config{MaxCount: 50, Rand: nil, Values: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestRoundTripCOO(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		m := randomCSR(rng.New(seed), 25, 150)
		back := m.ToCOO().ToCSR()
		return m.Equal(back)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		m := randomCSR(rng.New(seed), 25, 150)
		return m.Equal(m.Transpose().Transpose())
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeEntry(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := randomCSR(r, 15, 60)
		tr := m.Transpose()
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k, j := range cols {
				if tr.At(j, i) != vals[k] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := randomCSR(r, 20, 100)
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = r.Float64()*4 - 2
		}
		y := make([]float64, m.Rows)
		m.MulVec(x, y)
		d := m.Dense()
		for i := 0; i < m.Rows; i++ {
			want := 0.0
			for j := 0; j < m.Cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(want-y[i]) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestIdentity(t *testing.T) {
	m := Identity(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	m.MulVec(x, y)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity multiply changed x at %d", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := func() *CSR {
		return FromEntries(3, 3, []Entry{{0, 0, 1}, {1, 2, 2}, {2, 1, 3}})
	}
	cases := []struct {
		name    string
		corrupt func(*CSR)
	}{
		{"rowptr first", func(m *CSR) { m.RowPtr[0] = 1 }},
		{"rowptr monotone", func(m *CSR) { m.RowPtr[1] = 3; m.RowPtr[2] = 1 }},
		{"col out of range", func(m *CSR) { m.ColIdx[0] = 9 }},
		{"col negative", func(m *CSR) { m.ColIdx[0] = -1 }},
		{"rowptr last", func(m *CSR) { m.RowPtr[3] = 2 }},
		{"lengths", func(m *CSR) { m.Val = m.Val[:2] }},
	}
	for _, c := range cases {
		m := base()
		c.corrupt(m)
		if m.Validate() == nil {
			t.Fatalf("%s: corruption not detected", c.name)
		}
	}
}

func TestValidateDuplicateColumns(t *testing.T) {
	m := &CSR{Rows: 1, Cols: 3, RowPtr: []int{0, 2}, ColIdx: []int{1, 1}, Val: []float64{1, 2}}
	if m.Validate() == nil {
		t.Fatal("duplicate columns not detected")
	}
}

func TestSymmetrizePattern(t *testing.T) {
	m := FromEntries(3, 3, []Entry{{0, 1, 2}, {1, 0, 5}, {2, 0, 1}})
	s := m.SymmetrizePattern()
	if !s.Has(0, 1) || !s.Has(1, 0) || !s.Has(0, 2) || !s.Has(2, 0) {
		t.Fatal("symmetrized pattern incomplete")
	}
	if s.At(0, 1) != 7 || s.At(1, 0) != 7 {
		t.Fatalf("summed values wrong: %v, %v", s.At(0, 1), s.At(1, 0))
	}
	if !s.IsStructurallySymmetric() {
		t.Fatal("symmetrized matrix not symmetric")
	}
}

func TestIsStructurallySymmetric(t *testing.T) {
	sym := FromEntries(2, 2, []Entry{{0, 1, 1}, {1, 0, 9}})
	if !sym.IsStructurallySymmetric() {
		t.Fatal("symmetric pattern not detected")
	}
	asym := FromEntries(2, 2, []Entry{{0, 1, 1}})
	if asym.IsStructurallySymmetric() {
		t.Fatal("asymmetric pattern reported symmetric")
	}
	rect := FromEntries(2, 3, nil)
	if rect.IsStructurallySymmetric() {
		t.Fatal("rectangular matrix reported symmetric")
	}
}

func TestDiagonalPresence(t *testing.T) {
	m := FromEntries(4, 4, []Entry{{0, 0, 1}, {1, 2, 1}, {2, 2, 1}, {3, 0, 1}})
	present, count := m.DiagonalPresence()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if present[i] != want[i] {
			t.Fatalf("present[%d] = %v, want %v", i, present[i], want[i])
		}
	}
}

func TestComputeStats(t *testing.T) {
	m := FromEntries(3, 3, []Entry{
		{0, 0, 1}, {0, 1, 1}, {0, 2, 1},
		{1, 0, 1},
		{2, 0, 1}, {2, 2, 1},
	})
	s := m.ComputeStats()
	if s.NNZ != 6 || s.RowMin != 1 || s.RowMax != 3 || s.ColMin != 1 || s.ColMax != 3 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if math.Abs(s.RowAvg-2) > 1e-12 || math.Abs(s.PooledAvg-2) > 1e-12 {
		t.Fatalf("averages wrong: %+v", s)
	}
	if s.PooledMin != 1 || s.PooledMax != 3 {
		t.Fatalf("pooled extremes wrong: %+v", s)
	}
}

func TestEmptyRowsCols(t *testing.T) {
	m := FromEntries(3, 3, []Entry{{0, 0, 1}, {2, 0, 1}})
	if rows := m.EmptyRows(); len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("empty rows = %v", rows)
	}
	if cols := m.EmptyCols(); len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Fatalf("empty cols = %v", cols)
	}
	fixed := m.EnsureNonemptyRowsCols()
	if len(fixed.EmptyRows()) != 0 || len(fixed.EmptyCols()) != 0 {
		t.Fatal("EnsureNonemptyRowsCols left empty rows/cols")
	}
	// Idempotent on already-full matrices: same object returned.
	if again := fixed.EnsureNonemptyRowsCols(); again != fixed {
		t.Fatal("EnsureNonemptyRowsCols copied a full matrix")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromEntries(2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	c := m.Clone()
	c.Val[0] = 99
	if m.Val[0] == 99 {
		t.Fatal("clone shares storage")
	}
	if !m.PatternEqual(c) {
		t.Fatal("clone pattern differs")
	}
}

func TestScaleAndMaxAbs(t *testing.T) {
	m := FromEntries(2, 2, []Entry{{0, 0, -3}, {1, 1, 2}})
	m.Scale(-2)
	if m.At(0, 0) != 6 || m.At(1, 1) != -4 {
		t.Fatal("scale wrong")
	}
}

func TestPatternEqualIgnoresValues(t *testing.T) {
	a := FromEntries(2, 2, []Entry{{0, 1, 1}})
	b := FromEntries(2, 2, []Entry{{0, 1, 42}})
	if !a.PatternEqual(b) {
		t.Fatal("patterns should match")
	}
	if a.Equal(b) {
		t.Fatal("values differ, Equal should be false")
	}
}

func TestRowColAccessors(t *testing.T) {
	m := FromEntries(2, 3, []Entry{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[1] != 2 {
		t.Fatalf("Row(0) = %v %v", cols, vals)
	}
	if m.RowNNZ(1) != 1 {
		t.Fatalf("RowNNZ(1) = %d", m.RowNNZ(1))
	}
	csc := m.ToCSC()
	rows, cvals := csc.Col(2)
	if len(rows) != 1 || rows[0] != 0 || cvals[0] != 2 {
		t.Fatalf("Col(2) = %v %v", rows, cvals)
	}
	if csc.ColNNZ(1) != 1 {
		t.Fatalf("ColNNZ(1) = %d", csc.ColNNZ(1))
	}
}
