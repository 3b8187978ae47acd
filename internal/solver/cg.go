// Package solver implements the conjugate gradient method on top of a
// decomposed sparse matrix — the paper's motivating application:
// "repeated matrix-vector multiplication y = Ax ... is the kernel
// operation in iterative solvers". Every CG iteration performs one
// multiply through an Operator (the spmv simulator pays the
// decomposition's expand/fold volume again) plus two scalar
// all-reduces; the solver accounts for both, so decompositions can be
// compared by the total words a full solve moves.
//
// Vector updates (axpy) touch only conformally partitioned vectors and
// need no communication — the reason the paper insists on symmetric
// vector partitioning.
//
// BlockCG is the only CG iteration in the repository: the simulator
// session solves, the partition server, and the real-hardware kernel's
// Plan.CG (n = 1, through an adapter) all run this loop.
package solver

import (
	"errors"
	"fmt"
	"math"

	"finegrain/internal/obs"
	"finegrain/internal/spmv"
)

// Operator is the multiply a solve runs on. *spmv.Plan satisfies it
// as is; internal/kernel adapts its real-hardware plan.
type Operator interface {
	// Dims returns the operator's (rows, cols).
	Dims() (rows, cols int)
	// ExecBlock computes Y = A·X for n stacked vectors (vector v is
	// X[v*cols : (v+1)*cols], same layout over rows for Y).
	ExecBlock(X, Y []float64, n int, opts spmv.ExecOptions) error
	// BlockCounters returns the traffic one ExecBlock over n vectors
	// moves (zero for an operator that moves no words).
	BlockCounters(n int) spmv.Result
}

// BlockCGResult reports the outcome of a block conjugate gradient
// solve over n stacked right-hand sides.
type BlockCGResult struct {
	// X holds the n solution estimates back to back (vector v is
	// X[v*rows : (v+1)*rows]), matching spmv's ExecBlock layout.
	X []float64
	// NRHS is n.
	NRHS int
	// Per-RHS outcome, indexed by vector: iterations that updated the
	// vector, the final ‖b − Ax‖₂, and whether the tolerance was met.
	// Each trajectory is exactly the one a solo (n = 1) solve produces
	// — vectors freeze at their own convergence (or breakdown) point
	// while the rest of the block keeps iterating.
	Iterations []int
	Residuals  []float64
	Converged  []bool
	// BlockIterations counts the shared ExecBlock sweeps — the max over
	// the per-RHS iteration counts, and the number the amortized
	// message accounting below is based on.
	BlockIterations int

	// Communication accounting across the whole solve. Messages are
	// paid once per block sweep regardless of n (the amortization the
	// block path exists for); words scale with n for the multiplies and
	// with the count of still-active vectors for each all-reduce.
	SpMVWords      int
	SpMVMessages   int
	AllreduceWords int
}

// TotalWords returns all words the block solve moved.
func (r *BlockCGResult) TotalWords() int { return r.SpMVWords + r.AllreduceWords }

// AllConverged reports whether every right-hand side met the tolerance.
func (r *BlockCGResult) AllConverged() bool {
	for _, c := range r.Converged {
		if !c {
			return false
		}
	}
	return true
}

// BlockCGOptions configures a block solve.
type BlockCGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖ (default 1e-8),
	// applied per right-hand side.
	Tol float64
	// MaxIter bounds the iterations of every right-hand side (default
	// 10·n).
	MaxIter int
	// Workers bounds the goroutines each block multiply uses (0 =
	// GOMAXPROCS). The solve is byte-identical for every value.
	Workers int
	// Trace, when non-nil, records the solve on its own trace track:
	// one "cg.block" span, a "cg.iter" span per block sweep, and the
	// operator's exec spans. Nil disables tracing at zero cost.
	Trace *obs.Trace
	// OnIteration, when non-nil, is called after every block sweep with
	// the sweep index and the current per-RHS residuals ‖r_v‖₂ (frozen
	// vectors report their final value). The slice is reused across
	// calls — copy it to retain. This is the hook the partition
	// server's NDJSON residual streaming feeds from.
	OnIteration func(iter int, residuals []float64)
}

// BlockCG solves A·x_v = b_v for n right-hand sides at once on a
// compiled operator, sharing one block multiply per iteration across
// the whole batch. B holds the right-hand sides back to back (vector v
// is B[v*rows : (v+1)*rows]). k is the processor count the all-reduce
// model charges for (1 charges nothing). A is assumed symmetric
// positive definite: a right-hand side whose search direction breaks
// down (pᵀAp ≤ 0) freezes at its current iterate, unconverged, while
// the rest of the block keeps going. Failure to converge is reported
// in the result, not as an error.
//
// Each right-hand side's trajectory — iterates, residuals, iteration
// count — is bitwise identical to an n = 1 solve with the same options
// at any worker count: the block multiply is bitwise equal to the
// single multiply per vector, and per-vector scalar recurrences are
// evaluated in the same order. What changes is the traffic: every
// sweep pays the operator's message count once for all n vectors.
func BlockCG(op Operator, k int, B []float64, n int, opts BlockCGOptions) (*BlockCGResult, error) {
	rows, cols := op.Dims()
	if rows != cols {
		return nil, errors.New("solver: CG needs a square matrix")
	}
	if n < 1 {
		return nil, fmt.Errorf("solver: block CG with n=%d right-hand sides", n)
	}
	if len(B) != n*rows {
		return nil, fmt.Errorf("solver: len(B)=%d, want n*rows = %d*%d = %d", len(B), n, rows, n*rows)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * rows
	}

	res := &BlockCGResult{
		X:          make([]float64, n*rows),
		NRHS:       n,
		Iterations: make([]int, n),
		Residuals:  make([]float64, n),
		Converged:  make([]bool, n),
	}
	// allreduce charges one batched tree reduction carrying `width`
	// scalars: words scale with the batch, rounds do not.
	allreduce := func(width int) {
		if k > 1 && width > 0 {
			res.AllreduceWords += 2 * (k - 1) * width
		}
	}
	ctr := op.BlockCounters(n)
	var tk *obs.Track
	if opts.Trace.Enabled() {
		tk = opts.Trace.NewTrack("cg block solve")
	}
	ssp := tk.Begin("solver", "cg.block").Arg("rows", int64(rows)).Arg("n", int64(n)).Arg("k", int64(k))
	defer func() { ssp.End() }()
	execOpts := spmv.ExecOptions{Workers: opts.Workers, Track: tk}

	R := append([]float64(nil), B...) // r_v = b_v − A·0 = b_v
	P := append([]float64(nil), B...)
	AP := make([]float64, n*rows)
	rs := make([]float64, n)
	bNorm := make([]float64, n)
	// frozen marks vectors no longer updated: converged, broken down
	// (pap ≤ 0), or zero right-hand side.
	frozen := make([]bool, n)
	for v := 0; v < n; v++ {
		rv := R[v*rows : (v+1)*rows]
		rs[v] = dot(rv, rv)
		bNorm[v] = math.Sqrt(rs[v])
		if bNorm[v] == 0 {
			res.Converged[v] = true
			frozen[v] = true
		}
	}
	allreduce(n)
	residuals := make([]float64, n)

	for iter := 0; iter < maxIter; iter++ {
		active := 0
		for v := 0; v < n; v++ {
			if frozen[v] {
				continue
			}
			if math.Sqrt(rs[v])/bNorm[v] <= tol {
				res.Converged[v] = true
				frozen[v] = true
				continue
			}
			active++
		}
		if active == 0 {
			break
		}
		isp := tk.Begin("solver", "cg.iter").Arg("iter", int64(iter)).Arg("active", int64(active))
		if err := op.ExecBlock(P, AP, n, execOpts); err != nil {
			isp.End()
			return nil, err
		}
		res.SpMVWords += ctr.TotalWords()
		res.SpMVMessages += ctr.TotalMessages()

		papCount, updCount := 0, 0
		for v := 0; v < n; v++ {
			if frozen[v] {
				continue
			}
			pv := P[v*rows : (v+1)*rows]
			apv := AP[v*rows : (v+1)*rows]
			pap := dot(pv, apv)
			papCount++
			if pap <= 0 {
				// Not SPD (or numerical breakdown) for this right-hand
				// side: freeze its current iterate; the rest of the
				// block keeps going.
				frozen[v] = true
				continue
			}
			alpha := rs[v] / pap
			xv := res.X[v*rows : (v+1)*rows]
			rv := R[v*rows : (v+1)*rows]
			// rsNew = rᵀr accumulates in the update sweep, in dot's
			// order, so the residual costs no second pass over r.
			rsNew := 0.0
			for i := range rv {
				xv[i] += alpha * pv[i]
				ri := rv[i] - alpha*apv[i]
				rv[i] = ri
				rsNew += ri * ri
			}
			beta := rsNew / rs[v]
			for i := 0; i < rows; i++ {
				pv[i] = rv[i] + beta*pv[i]
			}
			rs[v] = rsNew
			res.Iterations[v]++
			updCount++
		}
		allreduce(papCount) // pap round
		allreduce(updCount) // rsNew round (breakdown vectors drop out before it)
		res.BlockIterations++
		if opts.OnIteration != nil {
			for v := 0; v < n; v++ {
				residuals[v] = math.Sqrt(rs[v])
			}
			opts.OnIteration(iter, residuals)
		}
		isp.End()
	}
	for v := 0; v < n; v++ {
		if math.Sqrt(rs[v])/bNorm[v] <= tol || bNorm[v] == 0 {
			res.Converged[v] = true
		}
		res.Residuals[v] = math.Sqrt(rs[v])
	}
	return res, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
