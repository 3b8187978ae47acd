package finegrain_test

import (
	"reflect"
	"strings"
	"testing"

	finegrain "finegrain"
	"finegrain/internal/matgen"
	"finegrain/internal/solver"
	"finegrain/internal/spmv"
)

// spdMatrix returns a strictly SPD matrix (5-point Laplacian plus
// identity) for the solve tests.
func spdMatrix(rows, cols int) *finegrain.Matrix {
	a := matgen.Grid5Point(rows, cols)
	coo := a.ToCOO()
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	return coo.ToCSR()
}

func stackedB(rows, n int) []float64 {
	B := make([]float64, n*rows)
	for v := 0; v < n; v++ {
		for i := 0; i < rows; i++ {
			B[v*rows+i] = 1/float64(i+v+1) - 0.5
		}
	}
	return B
}

// TestSessionMultiplyAndBlock: the session's multiplies reproduce the
// single-shot simulator path bitwise, and MultiplyBlock equals n
// Multiply calls at every worker count.
func TestSessionMultiplyAndBlock(t *testing.T) {
	a, err := finegrain.Generate("nl", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.Decompose2D(a, 8, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.K() != dec.Assignment.K {
		t.Fatalf("K() = %d, want %d", s.K(), dec.Assignment.K)
	}

	const n = 3
	X := make([]float64, n*a.Cols)
	for i := range X {
		X[i] = 1/float64(i+1) - 0.3
	}
	// Reference: a fresh simulator plan per vector, used once.
	want := make([]float64, n*a.Rows)
	for v := 0; v < n; v++ {
		pl, err := spmv.NewPlan(dec.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Exec(X[v*a.Cols:(v+1)*a.Cols], want[v*a.Rows:(v+1)*a.Rows], spmv.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		pl.Close()
	}
	y := make([]float64, a.Rows)
	for v := 0; v < n; v++ {
		if err := s.Multiply(X[v*a.Cols:(v+1)*a.Cols], y, finegrain.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(y, want[v*a.Rows:(v+1)*a.Rows]) {
			t.Fatalf("vector %d: Session.Multiply differs from a single-shot plan", v)
		}
	}
	Y := make([]float64, n*a.Rows)
	for _, workers := range []int{1, 2, 8} {
		if err := s.MultiplyBlock(X, Y, n, finegrain.ExecOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(Y, want) {
			t.Fatalf("workers=%d: MultiplyBlock differs from %d Multiply calls", workers, n)
		}
	}
	// The amortization surface: block messages equal single-multiply
	// messages, block words are n× the per-RHS counters.
	single, block := s.Counters(), s.BlockCounters(n)
	if block.TotalMessages() != single.TotalMessages() || block.TotalWords() != n*single.TotalWords() {
		t.Fatalf("BlockCounters(%d) = %d msgs / %d words, single = %d / %d",
			n, block.TotalMessages(), block.TotalWords(), single.TotalMessages(), single.TotalWords())
	}
}

// TestSessionSolveMatchesBlockCG: Session.Solve is exactly
// solver.BlockCG on a plan of the session's decomposition —
// byte-identical X at any worker count — and per-RHS trajectories
// converge.
func TestSessionSolveMatchesBlockCG(t *testing.T) {
	a := spdMatrix(10, 14)
	dec, err := finegrain.Decompose2D(a, 4, finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 3
	B := stackedB(a.Rows, n)
	pl, err := spmv.NewPlan(dec.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	want, err := solver.BlockCG(pl, dec.Assignment.K, B, n, solver.BlockCGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := s.Solve(B, n, finegrain.SolveOptions{Tol: 1e-10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !got.AllConverged() {
			t.Fatalf("workers=%d: not converged: %+v", workers, got.Converged)
		}
		if !reflect.DeepEqual(got.X, want.X) {
			t.Fatalf("workers=%d: Session.Solve differs bitwise from BlockCG", workers)
		}
		if !reflect.DeepEqual(got.Iterations, want.Iterations) {
			t.Fatalf("workers=%d: iteration counts differ: %v vs %v", workers, got.Iterations, want.Iterations)
		}
	}
}

// TestSessionLocalKernel: a session opened with CompileLocal serves
// real-kernel multiplies bitwise equal to the simulator's (rowwise
// model), including the block path.
func TestSessionLocalKernel(t *testing.T) {
	a, err := finegrain.Generate("nl", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.Decompose1D(a, 8, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{CompileLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2
	X := make([]float64, n*a.Cols)
	for i := range X {
		X[i] = float64(i%11) - 5
	}
	ySim := make([]float64, n*a.Rows)
	if err := s.MultiplyBlock(X, ySim, n, finegrain.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	yKer := make([]float64, n*a.Rows)
	if err := s.MultiplyLocalBlock(X, yKer, n, finegrain.ExecOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(yKer, ySim) {
		t.Fatal("local kernel block output differs bitwise from simulator")
	}
	y1 := make([]float64, a.Rows)
	if err := s.MultiplyLocal(X[:a.Cols], y1, finegrain.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y1, ySim[:a.Rows]) {
		t.Fatal("local kernel single output differs bitwise from simulator")
	}
}

// TestSessionErrors: nil decomposition, local calls without
// CompileLocal, and use after Close all fail cleanly; Close is
// idempotent.
func TestSessionErrors(t *testing.T) {
	if _, err := finegrain.NewSession(nil, finegrain.SessionOptions{}); finegrain.ErrorCodeOf(err) != finegrain.BadMatrix {
		t.Fatalf("nil decomposition: err = %v", err)
	}
	a := spdMatrix(6, 6)
	dec, err := finegrain.Decompose2D(a, 2, finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	if err := s.MultiplyLocal(x, y, finegrain.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "CompileLocal") {
		t.Fatalf("MultiplyLocal without CompileLocal: err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if err := s.Multiply(x, y, finegrain.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("Multiply after Close: err = %v", err)
	}
	if _, err := s.Solve(y, 1, finegrain.SolveOptions{}); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("Solve after Close: err = %v", err)
	}
}
