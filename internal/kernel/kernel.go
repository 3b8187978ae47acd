// Package kernel is the measured-hardware counterpart of the
// simulator in internal/spmv: a compile-once / execute-many CSR SpMV
// runtime that runs y = Ax on real OS threads and is timed in wall
// clock and GFLOP/s, not in simulated communication words. It mirrors
// the spmv.Plan contract — NewPlan pays all setup once, Exec reuses
// every buffer and allocates nothing in steady state, results are
// byte-identical at any worker count, and parallel calls borrow parked
// goroutines from the process-wide executor (internal/par).
//
// A Plan is compiled from a matrix plus an optional cache-locality
// permutation (internal/reorder). The compiled schedule lays rows out
// in permuted order, chopped into row blocks sized to a cache budget,
// and stores each entry's permuted column index — but keeps every
// row's accumulation in its original CSR (ascending original column)
// order. That fixes the floating-point result independently of the
// permutation: a permuted plan's output, gathered back through the
// inverse permutation, is bitwise-identical to the natural-order
// plan's — and to the distributed simulator's, whenever the
// decomposition computes whole rows on one processor (every 1D
// rowwise model). The permutation therefore changes only the memory
// access pattern, which is exactly the quantity the locality
// benchmarks measure.
package kernel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"finegrain/internal/obs"
	"finegrain/internal/par"
	"finegrain/internal/reorder"
	"finegrain/internal/sparse"
)

// Options tunes plan compilation.
type Options struct {
	// CacheBudget is the approximate footprint of one row block in
	// bytes — the values, column indices and output entries a block
	// touches (its x working set rides on top, which is what the
	// locality permutation compacts). 0 selects DefaultCacheBudget.
	CacheBudget int
}

// DefaultCacheBudget keeps a block's streaming footprint around the
// size of a typical per-core L2 slice.
const DefaultCacheBudget = 256 << 10

// ExecOptions tunes one Exec call.
type ExecOptions struct {
	// Workers bounds the goroutines that execute row blocks (0 picks
	// GOMAXPROCS). Explicit values are honored as given — even beyond
	// GOMAXPROCS — so determinism tests can exercise the parallel path
	// on any host; the result is byte-identical for every value.
	Workers int
	// Track, when non-nil, records one "exec" span per call. Nil keeps
	// the steady state allocation-free.
	Track *obs.Track
}

// Plan is a matrix compiled for repeated multiplication. It owns no
// goroutines, so dropping it without Close frees it.
type Plan struct {
	rows, cols int
	nnz        int

	// Compiled schedule, rows in permuted order: row r covers entries
	// rowPtr[r]..rowPtr[r+1], each val[t]*x[col[t]], accumulated in
	// that order (the original CSR order of the source row).
	rowPtr []int32
	col    []int32
	val    []float64

	// blocks[b]..blocks[b+1] is block b's row range.
	blocks []int32

	// Per-call state, published to the workers for one call: the
	// caller's vectors.
	x, y []float64

	cursor atomic.Int64 // next block to claim
	g      par.Group
	busy   atomic.Bool
	closed atomic.Bool
}

// NewPlan compiles a into an executable plan. A nil perm compiles the
// natural row/column order; a non-nil perm compiles the cache-blocked
// layout it describes (Exec then takes x and returns y in permuted
// index space).
func NewPlan(a *sparse.CSR, perm *reorder.Permutation, opts Options) (*Plan, error) {
	return NewPlanTraced(a, perm, opts, nil)
}

// NewPlanTraced is NewPlan recording one "compile" span in the
// "kernel" category on tr's default track (no-op when tr is nil).
func NewPlanTraced(a *sparse.CSR, perm *reorder.Permutation, opts Options, tr *obs.Trace) (*Plan, error) {
	sp := tr.Begin("kernel", "compile")
	defer func() { sp.End() }()
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	if a.NNZ() > math.MaxInt32 || a.Rows >= math.MaxInt32 {
		return nil, fmt.Errorf("kernel: matrix %s exceeds the compiled int32 index range", a)
	}
	if perm != nil {
		if len(perm.Row) != a.Rows || len(perm.Col) != a.Cols {
			return nil, fmt.Errorf("kernel: %dx%d permutation for %dx%d matrix",
				len(perm.Row), len(perm.Col), a.Rows, a.Cols)
		}
		if err := perm.Validate(); err != nil {
			return nil, err
		}
	}
	budget := opts.CacheBudget
	if budget <= 0 {
		budget = DefaultCacheBudget
	}

	pl := &Plan{
		rows:   a.Rows,
		cols:   a.Cols,
		nnz:    a.NNZ(),
		rowPtr: make([]int32, a.Rows+1),
		col:    make([]int32, a.NNZ()),
		val:    make([]float64, a.NNZ()),
	}

	dst := 0
	if perm == nil {
		for i := 0; i < a.Rows; i++ {
			pl.rowPtr[i+1] = pl.rowPtr[i] + int32(a.RowNNZ(i))
			for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
				pl.col[dst] = int32(a.ColIdx[t])
				pl.val[dst] = a.Val[t]
				dst++
			}
		}
	} else {
		invRow := make([]int32, a.Rows)
		for i, v := range perm.Row {
			invRow[v] = int32(i)
		}
		for r := 0; r < a.Rows; r++ {
			i := int(invRow[r])
			pl.rowPtr[r+1] = pl.rowPtr[r] + int32(a.RowNNZ(i))
			// Entries stay in the source row's original order; only the
			// stored x index moves to permuted space. This is what makes
			// the numeric result permutation-independent.
			for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
				pl.col[dst] = perm.Col[a.ColIdx[t]]
				pl.val[dst] = a.Val[t]
				dst++
			}
		}
	}

	// Chop rows into blocks whose streaming footprint (values + column
	// indices + outputs) fits the cache budget. Dynamic block claiming
	// in Exec balances the load whatever the per-block nnz turns out
	// to be.
	const bytesPerEntry = 8 + 4 // val + col
	const bytesPerRow = 8 + 4   // y + rowPtr
	pl.blocks = append(pl.blocks, 0)
	acc := 0
	for r := 0; r < a.Rows; r++ {
		acc += int(pl.rowPtr[r+1]-pl.rowPtr[r])*bytesPerEntry + bytesPerRow
		if acc >= budget {
			pl.blocks = append(pl.blocks, int32(r+1))
			acc = 0
		}
	}
	if int(pl.blocks[len(pl.blocks)-1]) != a.Rows {
		pl.blocks = append(pl.blocks, int32(a.Rows))
	}

	sp = sp.Arg("rows", int64(a.Rows)).Arg("nnz", int64(a.NNZ())).Arg("blocks", int64(len(pl.blocks)-1))
	return pl, nil
}

// Dims returns the compiled matrix shape (rows, cols).
func (pl *Plan) Dims() (int, int) { return pl.rows, pl.cols }

// NNZ returns the number of compiled nonzeros (2·NNZ flops per Exec).
func (pl *Plan) NNZ() int { return pl.nnz }

// Blocks returns the number of cache-budget row blocks the plan
// schedules.
func (pl *Plan) Blocks() int { return len(pl.blocks) - 1 }

// Close marks the plan closed: Exec after Close returns an error. A Plan holds no goroutines, so dropping it without Close frees
// it too. Close must not race an in-flight Exec.
func (pl *Plan) Close() { pl.closed.Store(true) }

// Exec runs one multiply y = Ax on the compiled plan. x and y live in
// the plan's index space: for a permuted plan, x[perm.Col[j]] holds
// original x_j and y[perm.Row[i]] receives original y_i. y is fully
// overwritten. The steady state performs no allocations, and the
// result is byte-identical for every ExecOptions value.
func (pl *Plan) Exec(x, y []float64, opts ExecOptions) error {
	if len(x) != pl.cols {
		return fmt.Errorf("kernel: len(x)=%d, plan compiled for %d columns", len(x), pl.cols)
	}
	if len(y) != pl.rows {
		return fmt.Errorf("kernel: len(y)=%d, plan compiled for %d rows", len(y), pl.rows)
	}
	if pl.closed.Load() {
		return errors.New("kernel: Exec on a closed Plan")
	}
	if !pl.busy.CompareAndSwap(false, true) {
		return errors.New("kernel: concurrent Exec calls on one Plan")
	}
	defer pl.busy.Store(false)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nb := len(pl.blocks) - 1; workers > nb {
		workers = nb
	}

	esp := opts.Track.Begin("kernel", "exec").Arg("workers", int64(workers))
	pl.x, pl.y = x, y
	pl.cursor.Store(0)
	pl.g.Run(workers, (*blocksTask)(pl))
	pl.x, pl.y = nil, nil
	esp.End()
	return nil
}

// blocksTask is a Plan seen as a par.Task; the conversion keeps Run out
// of Plan's method set.
type blocksTask Plan

// Run claims row blocks off the shared cursor until none remain.
// Blocks write disjoint y ranges and each row's sum has a fixed
// accumulation order, so the result does not depend on which goroutine
// claims which block.
func (t *blocksTask) Run(_ int, _ *par.Worker) {
	pl := (*Plan)(t)
	nb := int64(len(pl.blocks) - 1)
	for {
		b := pl.cursor.Add(1) - 1
		if b >= nb {
			return
		}
		pl.runBlock(int(b))
	}
}

func (pl *Plan) runBlock(b int) {
	x, y := pl.x, pl.y
	lo, hi := pl.blocks[b], pl.blocks[b+1]
	rowPtr, col, val := pl.rowPtr, pl.col, pl.val
	for r := lo; r < hi; r++ {
		var s float64
		for t := rowPtr[r]; t < rowPtr[r+1]; t++ {
			s += val[t] * x[col[t]]
		}
		y[r] = s
	}
}
