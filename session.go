package finegrain

import (
	"errors"
	"fmt"

	"finegrain/internal/kernel"
	"finegrain/internal/reorder"
	"finegrain/internal/solver"
	"finegrain/internal/spmv"
)

// ExecOptions tunes one multiply executed through a Session. The zero
// value is always valid.
type ExecOptions struct {
	// Workers bounds the execution goroutines (0 = the session default,
	// then GOMAXPROCS). Results are byte-identical for every value.
	Workers int
}

// SolveOptions configures one Session.Solve call (block conjugate
// gradient over 1..N right-hand sides): tolerance, iteration bound,
// workers, tracing, and the per-iteration residual callback the
// partition server streams NDJSON from.
type SolveOptions = solver.BlockCGOptions

// SolveResult reports a Session.Solve outcome: per-RHS solutions,
// iteration counts, residuals and convergence flags, plus the solve's
// amortized communication accounting.
type SolveResult = solver.BlockCGResult

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Workers is the default goroutine bound for every operation on the
	// session (0 = GOMAXPROCS); per-call ExecOptions.Workers overrides
	// it. Results are byte-identical for every value.
	Workers int
	// Trace, when non-nil, records a "session.open" span for the
	// compile and the plan/exec/solve spans of everything run through
	// the session. Nil disables tracing at zero cost.
	Trace *Trace
	// CompileLocal additionally compiles the decomposition's
	// cache-blocking permutation (Reorder) into a real-hardware kernel
	// plan, served by MultiplyLocal and MultiplyLocalBlock. Off by
	// default: the simulator plan alone answers every Multiply/Solve
	// call.
	CompileLocal bool
}

// Session is a decomposition compiled once and held open for many
// multiplies and solves — the serving regime the repository is built
// around: one cached decomposition, millions of right-hand sides. It
// is the only public multiply and solve handle: it bundles the
// Decomposition, the simulator Plan (communication-exact multiplies and
// block-CG solves) and, optionally, the locality kernel Plan
// (real-hardware multiplies in the original index space) behind one
// handle.
//
// The block entry points (MultiplyBlock, Solve with n > 1) carry N
// right-hand sides through one expand/fold cycle: the message count
// stays that of a single multiply while each message widens to N
// words — the amortization BlockCounters quantifies.
//
// A Session is not safe for concurrent calls. Close releases the
// compiled plans; dropping the Session without Close releases them via
// finalizers.
type Session struct {
	dec *Decomposition
	pl  *spmv.Plan
	// The locality kernel, nil unless SessionOptions.CompileLocal: the
	// plan compiled in permuted index space, its permutation, and the
	// permuted-space scratch, grown to the widest batch seen.
	kpl     *kernel.Plan
	perm    *reorder.Permutation
	xp, yp  []float64
	workers int
	trace   *Trace
	closed  bool
}

// NewSession compiles dec for repeated execution. The simulator plan
// is always compiled; SessionOptions.CompileLocal adds the locality
// kernel plan. Failures are reported as *Error values.
func NewSession(dec *Decomposition, o SessionOptions) (*Session, error) {
	const op = "NewSession"
	if dec == nil || dec.Assignment == nil {
		return nil, &Error{Code: BadMatrix, Op: op, Msg: "nil decomposition"}
	}
	sp := o.Trace.Begin("finegrain", "session.open").
		Arg("k", int64(dec.Assignment.K)).Arg("local", boolArg(o.CompileLocal))
	defer sp.End()
	pl, err := spmv.NewPlanTraced(dec.Assignment, o.Trace)
	if err != nil {
		return nil, classify(op, err)
	}
	s := &Session{dec: dec, pl: pl, workers: o.Workers, trace: o.Trace}
	if o.CompileLocal {
		_, perm, err := Reorder(dec, Options{Trace: o.Trace})
		if err != nil {
			pl.Close()
			return nil, err
		}
		a := dec.Assignment.A
		s.kpl, err = kernel.NewPlanTraced(a, perm, kernel.Options{}, o.Trace)
		if err != nil {
			pl.Close()
			return nil, classify(op, err)
		}
		s.perm = perm
		s.xp, s.yp = make([]float64, a.Cols), make([]float64, a.Rows)
	}
	return s, nil
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Decomposition returns the decomposition the session serves.
func (s *Session) Decomposition() *Decomposition { return s.dec }

// K returns the simulated processor count.
func (s *Session) K() int { return s.pl.K() }

// Counters returns the per-RHS communication profile of one multiply
// (fixed by the compiled routing table; Y is nil).
func (s *Session) Counters() SpMVResult { return s.pl.Counters() }

// BlockCounters returns the traffic one MultiplyBlock call with n
// right-hand sides realizes: single-multiply message counts, n× the
// words.
func (s *Session) BlockCounters(n int) SpMVResult { return s.pl.BlockCounters(n) }

func (s *Session) execWorkers(o ExecOptions) int {
	if o.Workers != 0 {
		return o.Workers
	}
	return s.workers
}

func (s *Session) check() error {
	if s.closed {
		return errors.New("finegrain: operation on a closed Session")
	}
	return nil
}

// Multiply executes y = A·x on the simulator plan into a
// caller-provided slice, allocating nothing in steady state.
func (s *Session) Multiply(x, y []float64, o ExecOptions) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.pl.Exec(x, y, spmv.ExecOptions{Workers: s.execWorkers(o)})
}

// MultiplyBlock executes Y = A·X for n stacked right-hand sides
// (vector v is X[v*cols : (v+1)*cols], same layout over rows for Y) in
// one expand/fold cycle, bitwise equal to n Multiply calls.
func (s *Session) MultiplyBlock(X, Y []float64, n int, o ExecOptions) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.pl.ExecBlock(X, Y, n, spmv.ExecOptions{Workers: s.execWorkers(o)})
}

// MultiplyLocal executes y = A·x on the locality kernel plan, bitwise
// equal at every worker count to a natural-order kernel multiply.
// Vectors stay in the original index space: the session maps them
// through the compiled permutation, allocating nothing in steady
// state. The session must have been opened with CompileLocal.
func (s *Session) MultiplyLocal(x, y []float64, o ExecOptions) error {
	return s.multiplyLocal(x, y, 1, o)
}

// MultiplyLocalBlock is MultiplyLocal over n stacked right-hand sides,
// reusing each cached matrix block across the whole batch — bitwise
// equal to n MultiplyLocal calls.
func (s *Session) MultiplyLocalBlock(X, Y []float64, n int, o ExecOptions) error {
	return s.multiplyLocal(X, Y, n, o)
}

// multiplyLocal permutes X into the kernel plan's index space,
// multiplies, and gathers the result back into Y. One vector runs
// through Exec, which is faster than ExecBlock at n = 1.
func (s *Session) multiplyLocal(X, Y []float64, n int, o ExecOptions) error {
	if err := s.check(); err != nil {
		return err
	}
	if s.kpl == nil {
		return errors.New("finegrain: session opened without CompileLocal")
	}
	rows, cols := s.kpl.Dims()
	if n < 1 {
		return fmt.Errorf("finegrain: local multiply with n=%d right-hand sides", n)
	}
	if len(X) != n*cols || len(Y) != n*rows {
		return fmt.Errorf("finegrain: len(X)=%d, len(Y)=%d, want n*cols = %d, n*rows = %d",
			len(X), len(Y), n*cols, n*rows)
	}
	if len(s.xp) < n*cols {
		s.xp, s.yp = make([]float64, n*cols), make([]float64, n*rows)
	}
	xp, yp := s.xp[:n*cols], s.yp[:n*rows]
	for v := 0; v < n; v++ {
		reorder.ApplyVec(xp[v*cols:(v+1)*cols], X[v*cols:(v+1)*cols], s.perm.Col)
	}
	opts := kernel.ExecOptions{Workers: o.Workers}
	var err error
	if n == 1 {
		err = s.kpl.Exec(xp, yp, opts)
	} else {
		err = s.kpl.ExecBlock(xp, yp, n, opts)
	}
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		reorder.UnapplyVec(Y[v*rows:(v+1)*rows], yp[v*rows:(v+1)*rows], s.perm.Row)
	}
	return nil
}

// Solve runs block conjugate gradient over n stacked right-hand sides
// (B holds vector v at B[v*rows : (v+1)*rows]) on the simulator plan,
// sharing one block multiply per iteration across the batch. Each
// right-hand side's trajectory is bitwise identical to a solo solve at
// any worker count; see SolveResult for the per-RHS outcomes and the
// amortized traffic accounting. A is assumed symmetric positive
// definite; non-convergence is reported in the result, not as an
// error.
func (s *Session) Solve(B []float64, n int, o SolveOptions) (*SolveResult, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if o.Workers == 0 {
		o.Workers = s.workers
	}
	if o.Trace == nil {
		o.Trace = s.trace
	}
	return solver.BlockCG(s.pl, s.pl.K(), B, n, o)
}

// Close releases the session's compiled plans. Idempotent; operations
// after Close return an error.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.pl.Close()
	if s.kpl != nil {
		s.kpl.Close()
	}
	return nil
}
