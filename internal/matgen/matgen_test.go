package matgen

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

func TestSampleDegreesExactSum(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(500)
		min := 1 + r.Intn(3)
		max := min + 2 + r.Intn(50)
		avg := float64(min) + (float64(max)-float64(min))*0.3
		spec := degreeSpec{n: n, min: min, max: max, sum: int(avg * float64(n)), tail: 0.6}
		deg := sampleDegrees(spec, r)
		sum := 0
		for _, d := range deg {
			if d < min || d > max {
				return false
			}
			sum += d
		}
		return sum == spec.sum
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDegreesNarrow(t *testing.T) {
	r := rng.New(4)
	spec := degreeSpec{n: 1000, min: 1, max: 7, sum: 4000, tail: 0}
	deg := sampleDegrees(spec, r)
	sum := 0
	for _, d := range deg {
		sum += d
	}
	if sum != 4000 {
		t.Fatalf("sum %d, want 4000", sum)
	}
}

func TestSampleDegreesPlantsExtremes(t *testing.T) {
	r := rng.New(9)
	spec := degreeSpec{n: 2000, min: 2, max: 100, sum: 12000, tail: 0.8}
	deg := sampleDegrees(spec, r)
	sawMin, sawMax := false, false
	for _, d := range deg {
		if d == 2 {
			sawMin = true
		}
		if d == 100 {
			sawMax = true
		}
	}
	if !sawMin || !sawMax {
		t.Fatalf("extremes not planted: min=%v max=%v", sawMin, sawMax)
	}
}

func TestWeightedSampler(t *testing.T) {
	r := rng.New(7)
	w := []int{0, 10, 0, 30, 60}
	s := newWeightedSampler(w)
	counts := make([]int, len(w))
	const n = 50000
	for i := 0; i < n; i++ {
		counts[s.sample(r)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight indices sampled: %v", counts)
	}
	for i, want := range []float64{0, 0.1, 0, 0.3, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("index %d frequency %.3f, want %.1f", i, got, want)
		}
	}
}

func TestCatalogComplete(t *testing.T) {
	specs := Catalog()
	if len(specs) != 14 {
		t.Fatalf("%d catalog entries, want 14", len(specs))
	}
	// In order of increasing nonzeros, as Table 1 lists them.
	for i := 1; i < len(specs); i++ {
		if specs[i].NNZ < specs[i-1].NNZ {
			t.Fatalf("catalog not ordered by nonzeros at %s", specs[i].Name)
		}
	}
	// Exact Table 1 values for a few spot checks.
	sh, _ := Lookup("sherman3")
	if sh.N != 5005 || sh.NNZ != 20033 || sh.MinDeg != 1 || sh.MaxDeg != 7 {
		t.Fatalf("sherman3 spec %+v", sh)
	}
	fin, _ := Lookup("finan512")
	if fin.N != 74752 || fin.MaxDeg != 1449 {
		t.Fatalf("finan512 spec %+v", fin)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestGenerateAllFamiliesSmall(t *testing.T) {
	for _, spec := range Catalog() {
		s := spec.Scaled(0.02)
		a := s.Generate(42)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if a.Rows != s.N || a.Cols != s.N {
			t.Fatalf("%s: %dx%d, want %d", spec.Name, a.Rows, a.Cols, s.N)
		}
		st := a.ComputeStats()
		if st.NNZ == 0 {
			t.Fatalf("%s: empty matrix", spec.Name)
		}
		// Nonzero count within 40% of target (generators are
		// approximate at tiny scales).
		ratio := float64(st.NNZ) / float64(s.NNZ)
		if ratio < 0.6 || ratio > 1.4 {
			t.Fatalf("%s: nnz %d vs target %d (ratio %.2f)", spec.Name, st.NNZ, s.NNZ, ratio)
		}
		// No empty rows or columns (decomposition models need pins).
		if len(a.EmptyRows()) != 0 || len(a.EmptyCols()) != 0 {
			t.Fatalf("%s: empty rows/cols", spec.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := Lookup("cq9")
	s := spec.Scaled(0.05)
	a := s.Generate(7)
	b := s.Generate(7)
	if !a.Equal(b) {
		t.Fatal("same seed produced different matrices")
	}
	c := s.Generate(8)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestScaledPreservesShape(t *testing.T) {
	spec, _ := Lookup("ken-11")
	s := spec.Scaled(0.1)
	if s.N != 1469 {
		t.Fatalf("scaled N %d", s.N)
	}
	// Absolute degree extremes preserved (capped at N/3).
	if s.MaxDeg != 243 {
		t.Fatalf("scaled MaxDeg %d, want 243", s.MaxDeg)
	}
	if s.AvgDeg != spec.AvgDeg {
		t.Fatalf("scaled AvgDeg %v", s.AvgDeg)
	}
	// Tiny scales cap the max degree.
	tiny := spec.Scaled(0.005)
	if tiny.N != 73 || tiny.MaxDeg > tiny.N/3 {
		t.Fatalf("tiny spec %+v", tiny)
	}
	// Scale 1 returns the original.
	if full := spec.Scaled(1); full.Name != "ken-11" || full.N != spec.N {
		t.Fatalf("Scaled(1) changed the spec: %+v", full)
	}
}

// TestScaledUpKeepsProfile checks scales above 1: every catalog spec
// multiplies N, keeps its degree figures and has NNZ = AvgDeg·N, and
// one generated matrix (sherman3, the smallest) has the scaled
// dimension and the spec's minimum degree. (Its maximum is not checked: the banded
// generator overshoots MaxDeg at scale 1 as well.)
func TestScaledUpKeepsProfile(t *testing.T) {
	for _, spec := range Catalog() {
		for _, scale := range []float64{2, 4} {
			s := spec.Scaled(scale)
			if want := fmt.Sprintf("%s@%g", spec.Name, scale); s.Name != want {
				t.Fatalf("name %q, want %q", s.Name, want)
			}
			wantN := int(scale) * spec.N
			if wantNNZ := int(math.Round(spec.AvgDeg * float64(wantN))); s.N != wantN || s.NNZ != wantNNZ {
				t.Fatalf("%s: N %d NNZ %d, want %d and %d", s.Name, s.N, s.NNZ, wantN, wantNNZ)
			}
			if s.MinDeg != spec.MinDeg || s.MaxDeg != spec.MaxDeg || s.AvgDeg != spec.AvgDeg {
				t.Fatalf("%s: degrees %d..%d avg %v, want %d..%d avg %v", s.Name,
					s.MinDeg, s.MaxDeg, s.AvgDeg, spec.MinDeg, spec.MaxDeg, spec.AvgDeg)
			}
		}
	}
	spec, _ := Lookup("sherman3")
	s := spec.Scaled(2)
	st := s.Generate(1).ComputeStats()
	if st.Rows != s.N || st.Cols != s.N {
		t.Fatalf("%s: generated %dx%d, want N %d", s.Name, st.Rows, st.Cols, s.N)
	}
	if st.PooledMin < s.MinDeg {
		t.Fatalf("%s: minimum degree %d, spec %d", s.Name, st.PooledMin, s.MinDeg)
	}
}

func TestSymmetricFamiliesAreSymmetric(t *testing.T) {
	for _, name := range []string{"bcspwr10", "vibrobox", "finan512"} {
		spec, _ := Lookup(name)
		a := spec.Scaled(0.03).Generate(3)
		if !a.IsStructurallySymmetric() {
			t.Fatalf("%s: not structurally symmetric", name)
		}
	}
}

// diagonalCount is the number of stored diagonal entries of a.
func diagonalCount(a *sparse.CSR) int {
	count := 0
	for i := 0; i < min(a.Rows, a.Cols); i++ {
		if a.Has(i, i) {
			count++
		}
	}
	return count
}

func TestLPFamiliesHaveMissingDiagonals(t *testing.T) {
	// Missing diagonals exercise the fine-grain dummy-vertex path; the
	// LP generator must produce some.
	spec, _ := Lookup("cre-b")
	a := spec.Scaled(0.05).Generate(11)
	if diagonalCount(a) == a.Rows {
		t.Fatal("LP matrix has a full diagonal; dummies never exercised")
	}
}

func TestLPDegreeTails(t *testing.T) {
	spec, _ := Lookup("ken-11")
	s := spec.Scaled(0.15)
	a := s.Generate(5)
	st := a.ComputeStats()
	// The planted linking rows/columns must materialize a heavy tail.
	if st.RowMax < s.MaxDeg/3 {
		t.Fatalf("row tail missing: max %d, spec max %d", st.RowMax, s.MaxDeg)
	}
	if st.ColMax < s.MaxDeg/3 {
		t.Fatalf("col tail missing: max %d, spec max %d", st.ColMax, s.MaxDeg)
	}
	if st.RowMin < s.MinDeg {
		t.Fatalf("row min %d below spec %d", st.RowMin, s.MinDeg)
	}
}

func TestGrid5Point(t *testing.T) {
	a := Grid5Point(4, 5)
	if a.Rows != 20 {
		t.Fatalf("dims %d", a.Rows)
	}
	// Interior vertex has 5 entries, corner has 3.
	if a.RowNNZ(0) != 3 {
		t.Fatalf("corner nnz %d", a.RowNNZ(0))
	}
	if a.RowNNZ(6) != 5 {
		t.Fatalf("interior nnz %d", a.RowNNZ(6))
	}
	if !a.IsStructurallySymmetric() {
		t.Fatal("laplacian not symmetric")
	}
}

func TestRandomGenerators(t *testing.T) {
	a := Random(30, 100, 1)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if diagonalCount(a) != 30 {
		t.Fatal("Random should have a full diagonal")
	}
	b := RandomPattern(30, 100, 1)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.EmptyRows()) != 0 || len(b.EmptyCols()) != 0 {
		t.Fatal("RandomPattern left empty rows/cols")
	}
}

func TestCapDegreesSym(t *testing.T) {
	spec, _ := Lookup("vibrobox")
	a := spec.Scaled(0.05).Generate(2)
	st := a.ComputeStats()
	s := spec.Scaled(0.05)
	if st.RowMax > s.MaxDeg {
		t.Fatalf("degree cap violated: %d > %d", st.RowMax, s.MaxDeg)
	}
}

func TestFamilyString(t *testing.T) {
	names := map[Family]string{
		FamilyBanded: "banded-fem", FamilyPowerGrid: "power-grid",
		FamilyLP: "lp", FamilyStaircase: "staircase-lp",
		FamilyStructural: "structural", FamilyHub: "hub-block",
	}
	for f, want := range names {
		if f.String() != want {
			t.Fatalf("%d stringifies to %q", int(f), f.String())
		}
	}
}
