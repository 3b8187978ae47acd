package kernel

import (
	"finegrain/internal/obs"
	"finegrain/internal/solver"
	"finegrain/internal/spmv"
)

// CGOptions configures a conjugate gradient solve on a compiled plan.
// It mirrors solver.BlockCGOptions minus the communication model — this
// CG runs on real threads, so the only outputs are the iterate and the
// wall clock the caller wraps around it.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖ (default 1e-8).
	Tol float64
	// MaxIter bounds iterations (default 10·n).
	MaxIter int
	// Workers is passed to every Exec (see ExecOptions.Workers).
	Workers int
	// Track, when non-nil, records one "cg" span plus the per-multiply
	// "exec" spans.
	Track *obs.Track
}

// CGResult reports the outcome of a solve.
type CGResult struct {
	X          []float64
	Iterations int
	Residual   float64 // final ‖b − Ax‖₂
	Converged  bool
}

// CG solves A·x = b on the compiled plan for symmetric positive
// definite A, reusing the plan for every multiply. b and the returned X
// live in the plan's index space, like Exec's vectors. It runs
// solver.BlockCG with one right-hand side, so the iteration sequence is
// byte-identical at every worker count because each multiply is.
func (pl *Plan) CG(b []float64, opts CGOptions) (*CGResult, error) {
	rows, _ := pl.Dims()
	sp := opts.Track.Begin("kernel", "cg").Arg("n", int64(rows))
	defer sp.End()
	res, err := solver.BlockCG(cgOperator{pl: pl, track: opts.Track}, 1, b, 1, solver.BlockCGOptions{
		Tol: opts.Tol, MaxIter: opts.MaxIter, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &CGResult{X: res.X, Iterations: res.Iterations[0], Residual: res.Residuals[0], Converged: res.Converged[0]}, nil
}

// cgOperator adapts a Plan to solver.Operator. It multiplies each
// vector with Exec, records its exec spans on the caller's track
// rather than a solver track, and reports no traffic: real threads
// move no simulated words.
type cgOperator struct {
	pl    *Plan
	track *obs.Track
}

func (o cgOperator) Dims() (int, int) { return o.pl.Dims() }

func (o cgOperator) BlockCounters(int) spmv.Result { return spmv.Result{} }

func (o cgOperator) ExecBlock(X, Y []float64, n int, opts spmv.ExecOptions) error {
	rows, cols := o.pl.Dims()
	eo := ExecOptions{Workers: opts.Workers, Track: o.track}
	for v := 0; v < n; v++ {
		if err := o.pl.Exec(X[v*cols:(v+1)*cols], Y[v*rows:(v+1)*rows], eo); err != nil {
			return err
		}
	}
	return nil
}
