// The partitioner's tasks on the process-wide executor (internal/par).
//
// Recursion branches and round helpers run as par tasks with explicit
// argument fields (no closures). Each executor worker keeps one
// workerLocal in its Local slot: a scratch arena whose warm buffers
// survive across tasks and Partition calls, and the forked trace track
// of the last trace it served.
//
// Concurrency is bounded by the caller's workerPool semaphore: every
// submitted task carries the pool slot its submitter acquired and
// releases it when the task's work is done, before the worker parks,
// preserving the slot recirculation forkJoin documents.
package hgpart

import (
	"sync"

	"finegrain/internal/obs"
	"finegrain/internal/par"
)

// workerLocal is the state hgpart keeps on one executor worker. The
// arena is owned outright — never returned to scratchPool — so a worker
// that served a large level keeps the grown buffers for the next task.
type workerLocal struct {
	s scratch

	// Forked-track cache: one "hgpart worker" track per trace this
	// worker has served, keyed by trace identity. Branch tasks executed
	// here run sequentially, so their spans nest correctly on the one
	// track. Cleared when an untraced task arrives so a parked worker
	// does not pin a finished trace in memory.
	lastTrace *obs.Trace
	lastTrack *obs.Track
}

// localOf returns w's hgpart state, creating it on the worker's first
// hgpart task.
func localOf(w *par.Worker) *workerLocal {
	l, ok := w.Local.(*workerLocal)
	if !ok {
		l = new(workerLocal)
		w.Local = l
	}
	return l
}

// trackFor maps the submitter's track to this worker's own row of the
// same trace, forking at most once per trace served.
func (l *workerLocal) trackFor(parent *obs.Track) *obs.Track {
	if parent == nil {
		l.lastTrace, l.lastTrack = nil, nil
		return nil
	}
	if tr := parent.Trace(); tr != l.lastTrace {
		l.lastTrack = parent.Fork("hgpart worker")
		l.lastTrace = tr
	}
	return l.lastTrack
}

// branchTask is one recursion branch handed to a worker by forkJoin.
// Tasks are pooled, so steady-state spawning allocates nothing; g is
// the branch's own join, since sibling forkJoins nest and overlap.
type branchTask struct {
	g     par.Group
	ctx   bisectCtx
	b     branchWork
	fixed []int
	slack float64
	opts  Options
	out   []int
	err   error
}

var branchPool = sync.Pool{New: func() any { return new(branchTask) }}

func (t *branchTask) Run(_ int, w *par.Worker) {
	l := localOf(w)
	ctx := t.ctx
	ctx.tk = l.trackFor(ctx.tk)
	ctx.sc.enter()
	t.err = recursiveBisect(ctx, t.b.sub, t.b.ids, t.fixed, t.b.kLo, t.b.k, t.slack, t.opts, t.b.r, t.out, &l.s)
	ctx.sc.leave()
	ctx.pool.release()
}

// putBranch returns a joined task to the pool, dropping every pointer
// so pooled tasks never retain hypergraphs or traces.
func putBranch(t *branchTask) {
	t.ctx, t.b, t.fixed, t.opts, t.out, t.err = bisectCtx{}, branchWork{}, nil, Options{}, nil, nil
	branchPool.Put(t)
}
