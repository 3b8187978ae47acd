package spmv

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"finegrain/internal/core"
	"finegrain/internal/obs"
	"finegrain/internal/par"
)

// Plan is a decomposition compiled for repeated execution — the paper's
// iterative-solver regime, where one decomposition is amortized over
// thousands of multiplies. NewPlan walks the assignment once and flattens
// it into index arrays and preallocated buffers:
//
//   - per-processor owned nonzeros with local row/column slots (a
//     CSR-like compute schedule over a compact local x fragment),
//   - expand send lists (global x indices per destination) and matching
//     receive copies (contiguous ranges of the shared word buffer into
//     the local fragment),
//   - fold send ranges (contiguous runs of the local partial array per
//     destination) and receive schedules (buffer position → owned-row
//     accumulator slot, ordered by sender),
//   - the message routing table itself, from which the word and message
//     counters are precomputed — they are properties of the plan, not of
//     any particular execution.
//
// Exec then runs one multiply reusing all of it: the steady state
// performs no allocations (asserted by TestExecDoesNotAllocate). The
// floating-point accumulation order is fixed by the plan (own partial
// first, then senders ascending, rows ascending within a message;
// per-processor compute in CSR order), so results are byte-identical
// across Exec calls and Workers values.
//
// A Plan is safe for concurrent reads of its counters, but Exec holds
// exclusive state: concurrent Exec calls on one Plan return an error.
// Parallel execution borrows parked goroutines from the process-wide
// executor (internal/par) for the duration of one call, so a Plan owns
// no goroutines and needs no Close to be freed.
type Plan struct {
	k          int
	rows, cols int
	nnz        int
	counters   Result // precomputed; Y stays nil

	procs     []pproc
	expandBuf []float64 // one disjoint range per expand message
	foldBuf   []float64 // one disjoint range per fold message

	// Per-call state, published to the shard workers for the duration
	// of one call: the caller's vectors, the RHS count (0 for Exec, n
	// for ExecBlock's stacked vectors; 0 and 1 both run the
	// single-vector kernels), the phase and the shard stride.
	x, y   []float64
	n      int
	phase  int
	stride int

	// blkCap is the width the block scratch (expandBufB, foldBufB and
	// the per-proc xlocB/partialB/yAccB fragments) is currently sized
	// for; scratch grows on demand and is reused, so steady-state
	// ExecBlock calls at a fixed n allocate nothing. It stays 0 until a
	// call with n ≥ 2: n = 1 runs in the plain buffers.
	blkCap     int
	expandBufB []float64
	foldBufB   []float64

	g      par.Group
	busy   atomic.Bool
	closed atomic.Bool
}

// ExecOptions tunes one Exec call.
type ExecOptions struct {
	// Workers bounds the goroutines that execute the simulated
	// processors (0 = GOMAXPROCS, capped at the processor count K and at
	// GOMAXPROCS; plans under a few thousand nonzeros run serially —
	// fanning out costs more than it splits). The result is
	// byte-identical for every value.
	Workers int
	// Track, when non-nil, records one "exec" span (plus expand/compute/
	// fold sub-spans) per call onto the given trace track. Nil keeps the
	// steady state allocation-free — every span call is a no-op.
	Track *obs.Track
}

// sendRange is one outgoing message compiled to a copy: the sender
// gathers src values into buf[off:off+n] (expand gathers from the global
// x by index; fold copies the contiguous partial range [src, src+n)).
type sendRange struct {
	off int32   // offset into the phase buffer
	src int32   // fold: first partial slot; expand: unused (-1)
	n   int32   // fold: word count; expand: len(idx)
	idx []int32 // expand: global x indices to gather, ascending
}

// recvRange is one incoming expand message: buf[off:off+n] lands in
// xloc[dst:dst+n] (the plan lays the local fragment out so every message
// is a contiguous copy).
type recvRange struct {
	off, dst, n int32
}

// foldRecv is one incoming fold message: buf[off+i] accumulates into
// yAcc[acc[i]]. Edges are stored in ascending sender order, which fixes
// the floating-point accumulation order.
type foldRecv struct {
	off int32
	acc []int32
}

// pproc is one simulated processor's compiled schedule.
type pproc struct {
	// Compute: partial[locRow[t]] += val[t] * xloc[locCol[t]], t in the
	// processor's CSR order.
	val    []float64
	locRow []int32
	locCol []int32

	// Local x fragment: [owned slots | one contiguous run per incoming
	// expand message, senders ascending]. xOwnIdx holds the global
	// column of each owned slot.
	xloc    []float64
	xOwnIdx []int32

	expSend []sendRange
	expRecv []recvRange

	// Partial sums: [rows owned by this processor, ascending | one
	// contiguous run per fold destination, destinations ascending, rows
	// ascending within a run].
	partial []float64
	// ownAcc[i] is the yAcc slot of partial slot i, for the leading
	// owned-row slots.
	ownAcc []int32

	foldSend []sendRange
	foldRecv []foldRecv

	// Block scratch: the same fragments widened to n interleaved words
	// per slot (slot s occupies [s*n, s*n+n)), sized for the plan's
	// current blkCap. Nil until the first ExecBlock with n ≥ 2.
	xlocB    []float64
	partialB []float64
	yAccB    []float64

	// y assembly: yAcc has one accumulator per owned row; yOwned holds
	// the global row of each slot, ascending. Rows owned by this
	// processor that receive no contribution anywhere publish zero.
	yAcc   []float64
	yOwned []int32
}

// NewPlan compiles asg into an executable Plan. It validates the
// assignment and pays the full setup cost once; every subsequent Exec
// reuses the compiled schedules.
func NewPlan(asg *core.Assignment) (*Plan, error) {
	return NewPlanTraced(asg, nil)
}

// NewPlanTraced is NewPlan recording one "plan.compile" span on tr's
// default track (no-op when tr is nil).
func NewPlanTraced(asg *core.Assignment, tr *obs.Trace) (*Plan, error) {
	sp := tr.Begin("spmv", "plan.compile")
	defer func() { sp.End() }()
	if err := asg.Validate(); err != nil {
		return nil, fmt.Errorf("spmv: %w", err)
	}
	sp = sp.Arg("k", int64(asg.K)).Arg("rows", int64(asg.A.Rows)).Arg("nnz", int64(len(asg.NonzeroOwner)))
	a := asg.A
	k := asg.K
	pl := &Plan{
		k:     k,
		rows:  a.Rows,
		cols:  a.Cols,
		nnz:   len(asg.NonzeroOwner),
		procs: make([]pproc, k),
	}

	// Distribute nonzeros per processor, preserving CSR order: the
	// per-processor accumulation order every Exec repeats.
	counts := make([]int, k)
	for _, o := range asg.NonzeroOwner {
		counts[o]++
	}
	gRow := make([][]int32, k)
	gCol := make([][]int32, k)
	for p := 0; p < k; p++ {
		gRow[p] = make([]int32, 0, counts[p])
		gCol[p] = make([]int32, 0, counts[p])
		pl.procs[p].val = make([]float64, 0, counts[p])
	}
	for i := 0; i < a.Rows; i++ {
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			p := asg.NonzeroOwner[t]
			gRow[p] = append(gRow[p], int32(i))
			gCol[p] = append(gCol[p], int32(a.ColIdx[t]))
			pl.procs[p].val = append(pl.procs[p].val, a.Val[t])
		}
	}

	// Owned rows per processor (ascending) and each row's slot within
	// its owner's accumulator.
	rowAccSlot := make([]int32, a.Rows)
	for i, o := range asg.YOwner {
		pr := &pl.procs[o]
		rowAccSlot[i] = int32(len(pr.yOwned))
		pr.yOwned = append(pr.yOwned, int32(i))
	}

	// Compile the local x fragment and expand routing, receiver by
	// receiver: xloc is [owned columns | one run per sender, senders
	// ascending], columns ascending within each part.
	lay := newLayout(max(a.Rows, a.Cols), k)
	expandOff := int32(0)
	for q := 0; q < k; q++ {
		pr := &pl.procs[q]
		pr.locCol = make([]int32, len(gCol[q]))
		cols, b := lay.group(gCol[q], asg.XOwner, q, pr.locCol)
		cols = slices.Clone(cols)
		pr.xOwnIdx = cols[:b[1]:b[1]]
		for sdr := 0; sdr < k; sdr++ {
			lo, hi := b[sdr+1], b[sdr+2]
			if lo == hi {
				continue
			}
			pl.procs[sdr].expSend = append(pl.procs[sdr].expSend, sendRange{
				off: expandOff, src: -1, n: hi - lo, idx: cols[lo:hi:hi],
			})
			pr.expRecv = append(pr.expRecv, recvRange{off: expandOff, dst: lo, n: hi - lo})
			expandOff += hi - lo
			pl.counters.ExpandWords += int(hi - lo)
			pl.counters.ExpandMessages++
		}
		pr.xloc = make([]float64, len(cols))
	}
	pl.expandBuf = make([]float64, expandOff)

	// Compile the partial layout and fold routing, sender by sender, on
	// the same layout: partial is [owned rows | one run per destination,
	// destinations ascending], rows ascending within each part.
	foldOff := int32(0)
	for p := 0; p < k; p++ {
		pr := &pl.procs[p]
		pr.locRow = make([]int32, len(gRow[p]))
		rows, b := lay.group(gRow[p], asg.YOwner, p, pr.locRow)
		acc := make([]int32, len(rows))
		for s, i := range rows {
			acc[s] = rowAccSlot[i]
		}
		pr.ownAcc = acc[:b[1]:b[1]]
		for d := 0; d < k; d++ {
			lo, hi := b[d+1], b[d+2]
			if lo == hi {
				continue
			}
			pr.foldSend = append(pr.foldSend, sendRange{off: foldOff, src: lo, n: hi - lo})
			// Sender loop ascending ⇒ each receiver's foldRecv list ends
			// up in ascending sender order: own partial first, then
			// senders ascending, the fold accumulation order.
			pl.procs[d].foldRecv = append(pl.procs[d].foldRecv, foldRecv{off: foldOff, acc: acc[lo:hi:hi]})
			foldOff += hi - lo
			pl.counters.FoldWords += int(hi - lo)
			pl.counters.FoldMessages++
		}
		pr.partial = make([]float64, len(rows))
		pr.yAcc = make([]float64, len(pr.yOwned))
	}
	pl.foldBuf = make([]float64, foldOff)
	return pl, nil
}

// layout is the one local-index layout both phases compile through: a
// processor's distinct indices grouped [self | owner 0 | owner 1 | …],
// ascending within each group. Its scratch is sized once per plan and
// reused across processors and phases.
type layout struct {
	stamp    []int32 // stamp[j] == epoch: j was seen in the current call
	slot     []int32 // slot[j]: j's local slot, valid while stamped
	epoch    int32
	distinct []int32
	grouped  []int32
	bounds   []int32
}

func newLayout(n, k int) *layout {
	return &layout{stamp: make([]int32, n), slot: make([]int32, n), bounds: make([]int32, k+3)}
}

// group lays out the distinct indices of occ, a processor's occurrence
// list: self's first, then owner o's for o ascending, each group
// ascending. It returns them in slot order with the run bounds b
// (self's run is [0, b[1]), owner o's is [b[o+1], b[o+2])) and writes
// each occurrence's slot into loc. Both results are scratch, valid
// until the next call.
func (l *layout) group(occ []int32, owner []int, self int, loc []int32) ([]int32, []int32) {
	l.epoch++
	l.distinct = l.distinct[:0]
	for _, j := range occ {
		if l.stamp[j] != l.epoch {
			l.stamp[j] = l.epoch
			l.distinct = append(l.distinct, j)
		}
	}
	slices.Sort(l.distinct)
	// Stable counting sort over keys self → 0, owner o → o+1: count key
	// c at b[c+2], prefix-sum so b[c+1] is c's start, then place with
	// b[c+1] as the cursor, which leaves it at c's end, b[c+2]'s start.
	key := func(j int32) int {
		if o := owner[j]; o != self {
			return o + 1
		}
		return 0
	}
	b := l.bounds
	clear(b)
	for _, j := range l.distinct {
		b[key(j)+2]++
	}
	for i := 1; i < len(b); i++ {
		b[i] += b[i-1]
	}
	l.grouped = slices.Grow(l.grouped[:0], len(l.distinct))[:len(l.distinct)]
	for _, j := range l.distinct {
		c := key(j) + 1
		l.grouped[b[c]] = j
		l.slot[j] = b[c]
		b[c]++
	}
	for t, j := range occ {
		loc[t] = l.slot[j]
	}
	return l.grouped, b
}

// K returns the number of simulated processors.
func (pl *Plan) K() int { return pl.k }

// Dims returns the compiled matrix shape (rows, cols).
func (pl *Plan) Dims() (int, int) { return pl.rows, pl.cols }

// Counters returns the communication profile every Exec realizes: the
// words and messages are fixed by the routing table, so they are
// precomputed at plan time. The returned Result's Y is nil.
func (pl *Plan) Counters() Result { return pl.counters }

// Close marks the plan closed: Exec and ExecBlock after Close return an
// error. A Plan holds no goroutines, so dropping it without Close frees
// it too. Close must not race an in-flight Exec.
func (pl *Plan) Close() { pl.closed.Store(true) }

// Exec runs one multiply y = Ax on the compiled plan, reusing every
// buffer: the steady state allocates nothing. len(x) must equal the
// matrix's column count and len(y) its row count; y is fully
// overwritten. The numeric result and the realized communication
// (Counters) are byte-identical for every ExecOptions value.
func (pl *Plan) Exec(x, y []float64, opts ExecOptions) error {
	if len(x) != pl.cols {
		return fmt.Errorf("spmv: len(x)=%d, plan compiled for %d columns", len(x), pl.cols)
	}
	if len(y) != pl.rows {
		return fmt.Errorf("spmv: len(y)=%d, plan compiled for %d rows", len(y), pl.rows)
	}
	return pl.run(x, y, 0, opts)
}

// run executes one call on validated vectors: n = 0 is Exec, n ≥ 1 an
// ExecBlock over n stacked right-hand sides.
func (pl *Plan) run(x, y []float64, n int, opts ExecOptions) error {
	if pl.closed.Load() {
		if n == 0 {
			return errors.New("spmv: Exec on a closed Plan")
		}
		return errors.New("spmv: ExecBlock on a closed Plan")
	}
	if !pl.busy.CompareAndSwap(false, true) {
		return errors.New("spmv: concurrent Exec calls on one Plan")
	}
	defer pl.busy.Store(false)

	workers := pl.execWorkers(opts.Workers, max(n, 1))
	var esp obs.Span
	if n == 0 {
		esp = opts.Track.Begin("spmv", "exec").Arg("workers", int64(workers))
	} else {
		esp = opts.Track.Begin("spmv", "exec.block").Arg("workers", int64(workers)).Arg("n", int64(n))
	}
	if n > 1 {
		pl.ensureBlockScratch(n)
	}
	pl.x, pl.y, pl.n, pl.stride = x, y, n, workers
	sp := opts.Track.Begin("spmv", "expand")
	pl.runPhase(phaseExpand)
	sp.End()
	sp = opts.Track.Begin("spmv", "compute")
	pl.runPhase(phaseCompute)
	sp.End()
	sp = opts.Track.Begin("spmv", "fold")
	pl.runPhase(phaseFold)
	sp.End()
	pl.x, pl.y = nil, nil
	esp.End()
	return nil
}

const (
	phaseExpand = iota
	phaseCompute
	phaseFold
)

// serialNNZThreshold is the per-call work (nonzeros times right-hand
// sides) below which fanning out is a net loss: three phase barriers
// cost more than the compute they split.
const serialNNZThreshold = 1 << 13

// execWorkers resolves the worker count of one call over n right-hand
// sides. The result never exceeds K (shards beyond K would be empty),
// never exceeds GOMAXPROCS (extra goroutines on a saturated host only
// add barrier round trips and scheduling churn: 8 workers once ran
// slower than 1 on a 1-CPU host), and
// collapses to 1 when nnz·n is small: a plan too small to fan out for
// one RHS may still be worth fanning out for sixteen. The output is
// byte-identical at any worker count, so clamping is always safe.
func (pl *Plan) execWorkers(requested, n int) int {
	workers := requested
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > pl.k {
		workers = pl.k
	}
	if maxp := runtime.GOMAXPROCS(0); workers > maxp {
		workers = maxp
	}
	if pl.nnz*n < serialNNZThreshold {
		workers = 1
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runPhase executes one phase across all processors on the executor's
// barrier: shard 0 inline, shards 1..stride−1 on parked workers. The
// phase completes only when every shard is done — the barrier the next
// phase's reads depend on.
func (pl *Plan) runPhase(phase int) {
	pl.phase = phase
	pl.g.Run(pl.stride, (*phaseTask)(pl))
}

// phaseTask is a Plan seen as a par.Task; the conversion keeps Run out
// of Plan's method set.
type phaseTask Plan

// Run executes the current phase for processors shard, shard+stride, …
// Processors touch disjoint buffer ranges and disjoint y entries, so
// shards never contend.
func (t *phaseTask) Run(shard int, _ *par.Worker) {
	pl := (*Plan)(t)
	n := pl.n
	for p := shard; p < pl.k; p += pl.stride {
		pr := &pl.procs[p]
		if n <= 1 {
			switch pl.phase {
			case phaseExpand:
				pr.expand(pl.x, pl.expandBuf)
			case phaseCompute:
				pr.compute(pl.expandBuf, pl.foldBuf)
			case phaseFold:
				pr.fold(pl.foldBuf, pl.y)
			}
			continue
		}
		switch pl.phase {
		case phaseExpand:
			pr.expandBlock(pl.x, pl.expandBufB, pl.cols, n)
		case phaseCompute:
			pr.computeBlock(pl.expandBufB, pl.foldBufB, n)
		case phaseFold:
			pr.foldBlock(pl.foldBufB, pl.y, pl.rows, n)
		}
	}
}

// expand loads the owned x slots and gathers every outgoing expand
// message into its buffer range.
func (pr *pproc) expand(x, buf []float64) {
	for s, j := range pr.xOwnIdx {
		pr.xloc[s] = x[j]
	}
	for _, e := range pr.expSend {
		dst := buf[e.off : int(e.off)+len(e.idx)]
		for w, j := range e.idx {
			dst[w] = x[j]
		}
	}
}

// compute ingests received x words, runs the local multiply-accumulate
// in CSR order, and copies outgoing fold ranges into the fold buffer.
func (pr *pproc) compute(expandBuf, foldBuf []float64) {
	for _, r := range pr.expRecv {
		copy(pr.xloc[r.dst:r.dst+r.n], expandBuf[r.off:r.off+r.n])
	}
	partial := pr.partial
	for i := range partial {
		partial[i] = 0
	}
	for t, v := range pr.val {
		partial[pr.locRow[t]] += v * pr.xloc[pr.locCol[t]]
	}
	for _, e := range pr.foldSend {
		copy(foldBuf[e.off:e.off+e.n], partial[e.src:e.src+e.n])
	}
}

// fold assembles this processor's owned y entries: own partials first,
// then incoming messages in ascending sender order — the accumulation
// order that makes repeated executions byte-identical.
func (pr *pproc) fold(foldBuf, y []float64) {
	acc := pr.yAcc
	for i := range acc {
		acc[i] = 0
	}
	for s, a := range pr.ownAcc {
		acc[a] = pr.partial[s]
	}
	for _, e := range pr.foldRecv {
		words := foldBuf[e.off : int(e.off)+len(e.acc)]
		for w, a := range e.acc {
			acc[a] += words[w]
		}
	}
	for s, i := range pr.yOwned {
		y[i] = acc[s]
	}
}
