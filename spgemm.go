package finegrain

import (
	"fmt"

	"finegrain/internal/spgemm"
)

// SpGEMM re-exports. The models and the simulated executor live in
// internal/spgemm; these aliases make the decompositions usable through
// the public API.
type (
	// SpGEMMAssignment is a decoded SpGEMM decomposition: the part
	// running each multiplication task of C = A·B plus the owner of
	// every stored element of A, B and C.
	SpGEMMAssignment = spgemm.Assignment
	// SpGEMMResult is the outcome of a simulated SpGEMM execution: the
	// computed product and the realized per-phase traffic.
	SpGEMMResult = spgemm.Result
)

// MatMul computes C = A·B serially with Gustavson's algorithm — the
// reference kernel the simulated SpGEMM executor is verified against.
func MatMul(a, b *Matrix) (*Matrix, error) {
	c, err := spgemm.Multiply(a, b)
	if err != nil {
		return nil, classify("MatMul", err)
	}
	return c, nil
}

// checkSpGEMMInput validates an SpGEMM decomposition request: both
// operands non-empty, conforming shapes, and K within the model's
// vertex count.
func checkSpGEMMInput(op string, a, b *Matrix, k, vertices int) error {
	if a == nil || a.NNZ() == 0 {
		return &Error{Code: BadMatrix, Op: op, Msg: "empty matrix A"}
	}
	if b == nil || b.NNZ() == 0 {
		return &Error{Code: BadMatrix, Op: op, Msg: "empty matrix B"}
	}
	if a.Cols != b.Rows {
		return &Error{Code: BadMatrix, Op: op,
			Msg: fmt.Sprintf("shapes do not conform: %dx%d times %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)}
	}
	if k < 1 {
		return &Error{Code: BadK, Op: op, Msg: fmt.Sprintf("K must be >= 1, got %d", k)}
	}
	if vertices == 0 {
		return &Error{Code: BadMatrix, Op: op, Msg: "structurally empty product"}
	}
	if k > vertices {
		return &Error{Code: BadK, Op: op,
			Msg: fmt.Sprintf("K=%d exceeds the model's %d vertices", k, vertices)}
	}
	return nil
}

// DecomposeSpGEMM decomposes the sparse matrix product C = A·B for K
// processors with the fine-grain (elementwise) SpGEMM hypergraph model
// of Ballard, Druinsky, Knight & Schwartz: one vertex per scalar
// multiplication task, one net per stored element of A, B and C, so
// the connectivity−1 cutsize equals the expand+fold communication
// volume exactly. Operands may be rectangular. The result carries a
// nil Assignment — the ownership structure is in Decomposition.SpGEMM;
// run it with ExecuteSpGEMM. Failures are reported as *Error values
// with a classification Code.
func DecomposeSpGEMM(a, b *Matrix, k int, o Options) (*Decomposition, error) {
	const op = "DecomposeSpGEMM"
	tasks := 0
	if a != nil && b != nil && a.Cols == b.Rows {
		tasks, _ = spgemm.NumTasks(a, b)
	}
	if err := checkSpGEMMInput(op, a, b, k, tasks); err != nil {
		return nil, err
	}
	return decompose(op, "spgemm", k, o, func() (built, error) {
		mdl, err := spgemm.BuildFineGrain(a, b)
		if err != nil {
			return built{}, err
		}
		return built{h: mdl.H, decodeSpGEMM: mdl.Decode}, nil
	})
}

// DecomposeSpGEMM1D decomposes C = A·B rowwise with the 1D Gustavson
// SpGEMM model: vertex i is row i of C (and A), weighted by its flops;
// net k is row k of B with cost nnz(B_k*). Only rows of B are
// communicated, and the weighted connectivity−1 cutsize is again the
// exact word count. A must be square (the model pins row k of B to the
// owner of row k of C). Failures are reported as *Error values with a
// classification Code.
func DecomposeSpGEMM1D(a, b *Matrix, k int, o Options) (*Decomposition, error) {
	const op = "DecomposeSpGEMM1D"
	vertices := 0
	if a != nil {
		vertices = a.Rows
	}
	if err := checkSpGEMMInput(op, a, b, k, vertices); err != nil {
		return nil, err
	}
	if a.Rows != a.Cols {
		return nil, &Error{Code: BadMatrix, Op: op,
			Msg: fmt.Sprintf("the 1D model needs square A, got %dx%d", a.Rows, a.Cols)}
	}
	return decompose(op, "spgemm_1d", k, o, func() (built, error) {
		mdl, err := spgemm.BuildRowwise(a, b)
		if err != nil {
			return built{}, err
		}
		return built{h: mdl.H, decodeSpGEMM: mdl.Decode}, nil
	})
}

// decomposeSpGEMMSelf and decomposeSpGEMM1DSelf adapt the two-operand
// SpGEMM entry points to the registry's one-matrix signature by
// squaring the input (C = A·A), so the spgemm models flow through
// every model-string surface — sparsepart, the partition server, the
// experiments driver. Use sparsepart's -spgemm flag or the Go API for
// a distinct B.
func decomposeSpGEMMSelf(a *Matrix, k int, o Options) (*Decomposition, error) {
	return DecomposeSpGEMM(a, a, k, o)
}

func decomposeSpGEMM1DSelf(a *Matrix, k int, o Options) (*Decomposition, error) {
	return DecomposeSpGEMM1D(a, a, k, o)
}

// ExecuteSpGEMM runs an SpGEMM decomposition through the simulated
// Sparse-SUMMA-style executor: A and B values expand to the parts
// whose tasks need them, each part multiplies locally, partial C
// values fold to their owners. The realized word and message counts
// always equal Decomposition.Stats' analytic profile — the executor
// fails instead of communicating outside the plan.
func ExecuteSpGEMM(dec *Decomposition) (*SpGEMMResult, error) {
	if dec == nil || dec.SpGEMM == nil {
		return nil, &Error{Code: BadModel, Op: "ExecuteSpGEMM",
			Msg: "decomposition has no SpGEMM assignment (produced by a non-spgemm model?)"}
	}
	res, err := spgemm.Execute(dec.SpGEMM)
	if err != nil {
		return nil, classify("ExecuteSpGEMM", err)
	}
	return res, nil
}
