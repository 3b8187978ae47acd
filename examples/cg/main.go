// Conjugate gradient on a decomposed matrix — the full iterative-solver
// scenario from the paper's introduction. A symmetric positive definite
// system (5-point Laplacian + I) is solved with CG, where every
// iteration's matrix-vector product runs on K simulated processors
// through the chosen decomposition. A Session compiles the
// decomposition into an execution plan once and reuses it for every
// iteration's multiply (and for any further solves on it). The better
// the decomposition, the fewer words the whole solve moves.
package main

import (
	"fmt"
	"log"

	finegrain "finegrain"
	"finegrain/internal/matgen"
)

func main() {
	// 48×48 grid Laplacian, shifted to be strictly SPD.
	a := matgen.Grid5Point(48, 48)
	coo := a.ToCOO()
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	a = coo.ToCSR()
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	const k = 8
	fmt.Printf("solving A·x = b: %v on K=%d processors\n\n", a, k)

	type method struct {
		name string
		fn   func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error)
	}
	for _, m := range []method{
		{"1D graph", finegrain.Decompose1DGraph},
		{"1D hypergraph", finegrain.Decompose1D},
		{"2D fine-grain", finegrain.Decompose2D},
	} {
		dec, err := m.fn(a, k, finegrain.Options{Seed: 11})
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		res, err := s.Solve(b, 1, finegrain.SolveOptions{Tol: 1e-8})
		s.Close()
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		if !res.AllConverged() {
			log.Fatalf("%s: CG did not converge (residual %g)", m.name, res.Residuals[0])
		}
		fmt.Printf("%-15s %3d iterations, residual %.2e\n", m.name, res.Iterations[0], res.Residuals[0])
		fmt.Printf("%-15s words/iteration: %d (volume of the decomposition)\n",
			"", dec.Stats.TotalVolume)
		fmt.Printf("%-15s whole solve: %d spmv words + %d allreduce words = %d total\n\n",
			"", res.SpMVWords, res.AllreduceWords, res.TotalWords())
	}
}
