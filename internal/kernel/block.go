package kernel

import "fmt"

// ExecBlock runs one block multiply Y = A·X for n stacked right-hand
// sides. X holds n column vectors back to back (vector v is
// X[v*cols : (v+1)*cols]) and Y the same over rows, both in the plan's
// index space — the layout internal/spmv's ExecBlock uses, so the two
// runtimes stay drop-in comparable.
//
// The block path re-reads each cached row block once per vector while
// the block is hot — the multi-vector reuse of the locality layout —
// and accumulates every (vector, row) sum in exactly Exec's order, so
// ExecBlock is bitwise equal to n independent Exec calls at any worker
// count. It needs no scratch at all and allocates nothing.
func (pl *Plan) ExecBlock(X, Y []float64, n int, opts ExecOptions) error {
	if n < 1 {
		return fmt.Errorf("kernel: ExecBlock with n=%d right-hand sides", n)
	}
	if len(X) != n*pl.cols {
		return fmt.Errorf("kernel: len(X)=%d, want n*cols = %d*%d = %d", len(X), n, pl.cols, n*pl.cols)
	}
	if len(Y) != n*pl.rows {
		return fmt.Errorf("kernel: len(Y)=%d, want n*rows = %d*%d = %d", len(Y), n, pl.rows, n*pl.rows)
	}
	return pl.run(X, Y, n, opts)
}

// runBlockB is runBlock widened to n vectors: the row's entries stream
// from cache once per vector, each (vector, row) accumulating in the
// source row's original order.
func (pl *Plan) runBlockB(b, n int) {
	X, Y := pl.x, pl.y
	lo, hi := pl.blocks[b], pl.blocks[b+1]
	rowPtr, col, val := pl.rowPtr, pl.col, pl.val
	cols, rows := pl.cols, pl.rows
	for r := lo; r < hi; r++ {
		start, end := rowPtr[r], rowPtr[r+1]
		for v := 0; v < n; v++ {
			x := X[v*cols : (v+1)*cols]
			var s float64
			for t := start; t < end; t++ {
				s += val[t] * x[col[t]]
			}
			Y[v*rows+int(r)] = s
		}
	}
}
