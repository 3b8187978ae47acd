package gpart

import (
	"finegrain/internal/graph"
	"finegrain/internal/obs"
	"finegrain/internal/par"
	"finegrain/internal/rng"
)

// recursion is the state one Partition call shares between its
// recursion branches. After a bisection the two sides are disjoint
// graphs that write disjoint entries of out, so the right branch may
// run on a parked executor worker while the left one runs inline.
//
// slots is the worker-slot semaphore: Workers−1 tokens, as in hgpart's
// workerPool, and taking one never blocks. A token is the index of the
// slot's scratch and forked trace track, which only the branch holding
// the token touches. gpart keeps nothing in par.Worker.Local, whose
// slot hgpart claims for its own arena.
type recursion struct {
	opts  Options
	epsB  float64
	out   []int
	tk    *obs.Track
	slots chan int
	slot  []slotState
}

// slotState is one worker slot's scratch and its "gpart worker" track,
// both made the first time the slot is taken.
type slotState struct {
	s  *scratch
	tk *obs.Track
}

func newRecursion(opts Options, epsB float64, out []int, tk *obs.Track) *recursion {
	extra := opts.Workers - 1
	rc := &recursion{opts: opts, epsB: epsB, out: out, tk: tk,
		slots: make(chan int, extra), slot: make([]slotState, extra)}
	for i := 0; i < extra; i++ {
		rc.slots <- i
	}
	return rc
}

// tryAcquire takes a free worker slot without blocking.
func (rc *recursion) tryAcquire() (int, bool) {
	select {
	case i := <-rc.slots:
		return i, true
	default:
		return 0, false
	}
}

// branchTask is a right recursion branch handed to the executor, with
// its arguments as explicit fields. g is the branch's own join, since
// sibling branches nest and overlap.
type branchTask struct {
	g    par.Group
	rc   *recursion
	slot int
	sub  *graph.Graph
	ids  []int
	kLo  int
	k    int
	r    *rng.RNG
	err  error
}

func (t *branchTask) Run(int, *par.Worker) {
	st := &t.rc.slot[t.slot]
	if st.s == nil {
		st.s = new(scratch)
		st.tk = t.rc.tk.Fork("gpart worker")
	}
	t.err = t.rc.bisect(t.sub, t.ids, t.kLo, t.k, t.r, st.tk, st.s)
	t.rc.slots <- t.slot
}
