package solver_test

import (
	"math"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/hgpart"
	"finegrain/internal/rng"
	"finegrain/internal/solver"
)

// stackedRHS returns n right-hand sides back to back, each a distinct
// deterministic vector. Vector 2 (when present) is zero, exercising
// the immediate-convergence path inside a live batch.
func stackedRHS(rows, n int, seed uint64) []float64 {
	r := rng.New(seed)
	B := make([]float64, n*rows)
	for v := 0; v < n; v++ {
		if v == 2 {
			continue
		}
		for i := 0; i < rows; i++ {
			B[v*rows+i] = r.Float64()*2 - 1
		}
	}
	return B
}

func fineAssignment(t *testing.T, rows, cols, k int) *core.Assignment {
	t.Helper()
	a, _ := spdSystem(rows, cols, 2)
	fg, err := core.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := hgpart.Partition(fg.H, k, hgpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	asg, err := fg.Decode2D(p)
	if err != nil {
		t.Fatal(err)
	}
	return asg
}

// TestBlockCGMatchesSoloRuns is the satellite property test: block-CG
// on n stacked right-hand sides reproduces n independent reference CG
// runs over the single multiply — same iterates, same iteration counts,
// same residuals — at every worker count. The match is bitwise, not
// just within tolerance: the block multiply is bitwise equal to the
// single multiply and the per-vector recurrences evaluate in the same
// order.
func TestBlockCGMatchesSoloRuns(t *testing.T) {
	asg := fineAssignment(t, 10, 14, 4)
	rows := asg.A.Rows
	const n = 4
	B := stackedRHS(rows, n, 7)

	pl := compile(t, asg)
	solo := make([]*refResult, n)
	for v := 0; v < n; v++ {
		solo[v] = refOnPlan(t, pl, B[v*rows:(v+1)*rows], 1e-10, 0)
	}

	for _, workers := range []int{1, 2, 8} {
		blk, err := solver.BlockCG(pl, asg.K, B, n, solver.BlockCGOptions{Tol: 1e-10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if blk.Iterations[v] != solo[v].Iterations {
				t.Errorf("workers=%d vector %d: %d iterations, solo took %d",
					workers, v, blk.Iterations[v], solo[v].Iterations)
			}
			if blk.Converged[v] != solo[v].Converged {
				t.Errorf("workers=%d vector %d: converged=%v, solo %v", workers, v, blk.Converged[v], solo[v].Converged)
			}
			if blk.Residuals[v] != solo[v].Residual {
				t.Errorf("workers=%d vector %d: residual %g, solo %g", workers, v, blk.Residuals[v], solo[v].Residual)
			}
			for i := 0; i < rows; i++ {
				if blk.X[v*rows+i] != solo[v].X[i] {
					t.Fatalf("workers=%d vector %d: X[%d] = %v, solo got %v",
						workers, v, i, blk.X[v*rows+i], solo[v].X[i])
				}
			}
		}
		if !blk.Converged[2] || blk.Iterations[2] != 0 || blk.Residuals[2] != 0 {
			t.Errorf("zero RHS: converged=%v iters=%d residual=%g, want immediate convergence",
				blk.Converged[2], blk.Iterations[2], blk.Residuals[2])
		}
	}
}

// TestBlockCGAmortizesMessages pins the traffic story: the block solve
// pays the plan's message count once per sweep — independent of n —
// while n solo solves pay it once per vector per iteration. Words
// scale with n either way.
func TestBlockCGAmortizesMessages(t *testing.T) {
	asg := fineAssignment(t, 10, 14, 4)
	rows := asg.A.Rows
	const n = 4
	B := stackedRHS(rows, n, 7)
	pl := compile(t, asg)
	blk, err := solver.BlockCG(pl, asg.K, B, n, solver.BlockCGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	ctr := pl.Counters()
	if want := blk.BlockIterations * ctr.TotalMessages(); blk.SpMVMessages != want {
		t.Errorf("block messages %d, want sweeps %d × plan messages %d = %d",
			blk.SpMVMessages, blk.BlockIterations, ctr.TotalMessages(), want)
	}
	if want := blk.BlockIterations * n * ctr.TotalWords(); blk.SpMVWords != want {
		t.Errorf("block words %d, want sweeps %d × n %d × plan words %d = %d",
			blk.SpMVWords, blk.BlockIterations, n, ctr.TotalWords(), want)
	}
	soloMessages := 0
	for v := 0; v < n; v++ {
		solo, err := solver.BlockCG(pl, asg.K, B[v*rows:(v+1)*rows], 1, solver.BlockCGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		soloMessages += solo.SpMVMessages
	}
	if soloMessages <= blk.SpMVMessages {
		t.Errorf("solo solves sent %d messages, block sent %d — block must amortize", soloMessages, blk.SpMVMessages)
	}
	if blk.TotalWords() != blk.SpMVWords+blk.AllreduceWords {
		t.Error("TotalWords inconsistent")
	}
}

// TestBlockCGOnIteration: the residual stream visits every sweep in
// order and reports monotone-by-convergence trajectories whose final
// entry matches the result. The callback slice is documented as reused.
func TestBlockCGOnIteration(t *testing.T) {
	asg := fineAssignment(t, 10, 14, 4)
	rows := asg.A.Rows
	const n = 3
	B := stackedRHS(rows, n, 9)
	pl := compile(t, asg)
	var iters []int
	var trail [][]float64
	blk, err := solver.BlockCG(pl, asg.K, B, n, solver.BlockCGOptions{
		Tol: 1e-10,
		OnIteration: func(iter int, residuals []float64) {
			iters = append(iters, iter)
			trail = append(trail, append([]float64(nil), residuals...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != blk.BlockIterations {
		t.Fatalf("callback fired %d times, BlockIterations = %d", len(iters), blk.BlockIterations)
	}
	for i, it := range iters {
		if it != i {
			t.Fatalf("iteration indices not sequential: %v", iters)
		}
		if len(trail[i]) != n {
			t.Fatalf("sweep %d reported %d residuals, want %d", i, len(trail[i]), n)
		}
	}
	last := trail[len(trail)-1]
	for v := 0; v < n; v++ {
		if last[v] != blk.Residuals[v] {
			t.Errorf("vector %d: last streamed residual %g, result %g", v, last[v], blk.Residuals[v])
		}
	}
}

// TestBlockCGErrors: dimension and width misuse must error.
func TestBlockCGErrors(t *testing.T) {
	a, _ := spdSystem(6, 6, 1)
	pl := compile(t, serialAssignment(a))
	if _, err := solver.BlockCG(pl, 1, make([]float64, a.Rows), 0, solver.BlockCGOptions{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := solver.BlockCG(pl, 1, make([]float64, a.Rows), 2, solver.BlockCGOptions{}); err == nil {
		t.Error("short B accepted")
	}
	// All-zero batch converges immediately with zero traffic.
	blk, err := solver.BlockCG(pl, 1, make([]float64, 2*a.Rows), 2, solver.BlockCGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !blk.AllConverged() || blk.BlockIterations != 0 || blk.SpMVMessages != 0 {
		t.Errorf("zero batch: %+v", blk)
	}
	for _, x := range blk.X {
		if x != 0 || math.IsNaN(x) {
			t.Fatal("zero batch must return the zero solution")
		}
	}
}
