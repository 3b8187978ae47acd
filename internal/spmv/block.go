package spmv

import "fmt"

// ExecBlock runs one block multiply Y = A·X for n stacked right-hand
// sides on the compiled plan. X holds n column vectors back to back
// (vector v is X[v*cols : (v+1)*cols]) and Y is laid out the same way
// over rows; both are fully overwritten/read per call.
//
// The point of the block path is amortization: the routing table is the
// plan's, so the message count is exactly that of a single Exec —
// independent of n — while every expand/fold index now drives an n-word
// copy, so moved words scale by n. Counters() still reports the
// per-RHS words; BlockCounters(n) reports the whole block's traffic.
//
// Internally each per-processor fragment is widened to n interleaved
// words per slot (slot s occupies [s*n, s*n+n)), which turns every
// compiled message into one contiguous n·len-word copy. Per (vector,
// slot) the floating-point operations happen in exactly the order Exec
// uses, so ExecBlock is bitwise equal to n independent Exec calls at
// any worker count. Scratch is grown on first use (and when n grows)
// and reused: steady-state calls at a fixed n allocate nothing.
func (pl *Plan) ExecBlock(X, Y []float64, n int, opts ExecOptions) error {
	if n < 1 {
		return fmt.Errorf("spmv: ExecBlock with n=%d right-hand sides", n)
	}
	if len(X) != n*pl.cols {
		return fmt.Errorf("spmv: len(X)=%d, want n*cols = %d*%d = %d", len(X), n, pl.cols, n*pl.cols)
	}
	if len(Y) != n*pl.rows {
		return fmt.Errorf("spmv: len(Y)=%d, want n*rows = %d*%d = %d", len(Y), n, pl.rows, n*pl.rows)
	}
	return pl.run(X, Y, n, opts)
}

// BlockCounters returns the communication profile one ExecBlock call
// with n right-hand sides realizes: the message counts are exactly
// those of a single Exec (the routing table does not depend on n),
// while the word counts scale by n. Counters() is therefore always the
// per-RHS figure. The returned Result's Y is nil.
func (pl *Plan) BlockCounters(n int) Result {
	c := pl.counters
	c.ExpandWords *= n
	c.FoldWords *= n
	return c
}

// ensureBlockScratch widens the plan's scratch to n words per slot.
// Grow-only: shrinking would only force reallocation when widths
// alternate, and the widest width bounds the footprint either way.
func (pl *Plan) ensureBlockScratch(n int) {
	if n <= pl.blkCap {
		return
	}
	pl.expandBufB = make([]float64, len(pl.expandBuf)*n)
	pl.foldBufB = make([]float64, len(pl.foldBuf)*n)
	for p := range pl.procs {
		pr := &pl.procs[p]
		pr.xlocB = make([]float64, len(pr.xloc)*n)
		pr.partialB = make([]float64, len(pr.partial)*n)
		pr.yAccB = make([]float64, len(pr.yAcc)*n)
	}
	pl.blkCap = n
}

// expandBlock is expand with every x index widened to n words: slot s
// of the local fragment (and of each outgoing message) receives
// X[v*cols+j] for v = 0..n-1.
func (pr *pproc) expandBlock(X, buf []float64, cols, n int) {
	for s, j := range pr.xOwnIdx {
		dst := pr.xlocB[s*n : s*n+n]
		for v := range dst {
			dst[v] = X[v*cols+int(j)]
		}
	}
	for _, e := range pr.expSend {
		out := buf[int(e.off)*n : (int(e.off)+len(e.idx))*n]
		for w, j := range e.idx {
			dst := out[w*n : w*n+n]
			for v := range dst {
				dst[v] = X[v*cols+int(j)]
			}
		}
	}
}

// computeBlock is compute over the widened fragments: every received
// message lands as one contiguous n·len-word copy, and the CSR
// multiply-accumulate updates n interleaved partials per nonzero —
// reusing each loaded matrix entry n times.
func (pr *pproc) computeBlock(expandBuf, foldBuf []float64, n int) {
	for _, r := range pr.expRecv {
		copy(pr.xlocB[int(r.dst)*n:int(r.dst+r.n)*n], expandBuf[int(r.off)*n:int(r.off+r.n)*n])
	}
	partial := pr.partialB[:len(pr.partial)*n]
	for i := range partial {
		partial[i] = 0
	}
	for t, v := range pr.val {
		row := int(pr.locRow[t]) * n
		col := int(pr.locCol[t]) * n
		xv := pr.xlocB[col : col+n]
		pv := partial[row : row+n]
		for u := range pv {
			pv[u] += v * xv[u]
		}
	}
	for _, e := range pr.foldSend {
		copy(foldBuf[int(e.off)*n:int(e.off+e.n)*n], partial[int(e.src)*n:int(e.src+e.n)*n])
	}
}

// foldBlock is fold over the widened accumulators: own partials first,
// then incoming messages in ascending sender order — per (vector, row)
// the accumulation order is exactly fold's, so the scattered Y is
// bitwise equal to n independent Exec calls.
func (pr *pproc) foldBlock(foldBuf, Y []float64, rows, n int) {
	acc := pr.yAccB[:len(pr.yAcc)*n]
	for i := range acc {
		acc[i] = 0
	}
	for s, a := range pr.ownAcc {
		copy(acc[int(a)*n:int(a)*n+n], pr.partialB[s*n:s*n+n])
	}
	for _, e := range pr.foldRecv {
		words := foldBuf[int(e.off)*n : (int(e.off)+len(e.acc))*n]
		for w, a := range e.acc {
			av := acc[int(a)*n : int(a)*n+n]
			wv := words[w*n : w*n+n]
			for v := range av {
				av[v] += wv[v]
			}
		}
	}
	for s, i := range pr.yOwned {
		for v := 0; v < n; v++ {
			Y[v*rows+int(i)] = acc[s*n+v]
		}
	}
}
