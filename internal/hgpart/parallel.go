// Parallel execution substrate for the multilevel partitioner.
//
// PartitionFixed parallelizes along two axes:
//
//  1. Recursive-bisection branches: after a bisection, the two induced
//     sub-hypergraphs are disjoint and each branch writes a disjoint set
//     of entries of the output slice, so siblings may run concurrently.
//     Both child RNG streams are derived from the parent stream *before*
//     either branch starts (in the exact order the serial code used),
//     so scheduling cannot perturb any random sequence.
//  2. In-bisection rounds: on levels at or above the parallel threshold,
//     coarsening and FM refinement fan proposal scoring out over vertex
//     chunks and apply results serially in a fixed order (see
//     rounds.go). This is the axis with work to chew on while the
//     recursion is shallow — a K-way partition saturates the pool from
//     the first coarsening level.
//
// Both axes share one bounded worker pool of Options.Workers − 1 extra
// slots (the caller's goroutine is the first worker); work executes on
// the parked workers of the process-wide executor (internal/par; the
// tasks are in exec.go). Acquisition never blocks: when the pool is
// exhausted, work simply runs inline, which bounds both goroutine count
// and memory while guaranteeing progress with zero risk of pool-induced
// deadlock.
package hgpart

import (
	"finegrain/internal/hypergraph"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// workerPool caps the number of extra goroutines the partitioner may
// have in flight. A pool with zero capacity (Workers = 1) makes every
// tryAcquire fail, which reduces the parallel code paths to the serial
// schedule.
type workerPool struct {
	sem chan struct{}
}

func newWorkerPool(extra int) *workerPool {
	if extra < 0 {
		extra = 0
	}
	return &workerPool{sem: make(chan struct{}, extra)}
}

// tryAcquire claims a goroutine slot without blocking. Callers that get
// false run the work inline.
func (p *workerPool) tryAcquire() bool {
	if p == nil || cap(p.sem) == 0 {
		return false
	}
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *workerPool) release() { <-p.sem }

// bisectCtx threads the shared worker pool, stats collector, and trace
// track through the recursion. top marks the first bisection, whose
// coarsening ladder and initial cut the Stats record describes. tk is
// the trace track owned by the current goroutine (nil when tracing is
// off); a branch that forks onto another goroutine gets its own track
// so its spans don't interleave with the parent row.
type bisectCtx struct {
	pool *workerPool
	sc   *statsCollector
	tk   *obs.Track
	top  bool
}

// child returns the context for a sub-bisection (no longer top-level).
func (c bisectCtx) child() bisectCtx {
	c.top = false
	return c
}

// branchWork is the explicit argument set of one recursion branch —
// forkJoin takes two of these instead of closures so the serial path
// allocates nothing and the spawned path ships them in a pooled
// branchTask.
type branchWork struct {
	sub *hypergraph.Hypergraph
	ids []int
	kLo int
	k   int
	r   *rng.RNG
}

// forkJoin executes both branches, handing one to a parked executor
// worker when a pool slot is free and running both inline (left first)
// otherwise. The inline branch reuses the caller's scratch arena; the
// spawned branch runs on the worker's persistent arena.
//
// Scheduling is pin-weighted: when a slot is free, the branch with the
// *smaller* sub-hypergraph (by pin count) is spawned and the heavier one
// runs inline. The caller blocks at the join after its inline work
// either way, but the worker returns its pool slot as soon as the light
// branch finishes, so the slot re-enters circulation while the heavy
// branch — and its own descendants, which can use that slot — is still
// running. Spawning the heavy branch instead would park the slot for
// the full duration of the slow side.
//
// Error precedence matches the serial schedule: left's error, if any, is
// returned even when right also failed, so the caller sees the same
// error either way. Determinism is unaffected by which branch is
// spawned: both RNG streams are derived before forkJoin is called and
// the branches write disjoint output regions.
func forkJoin(ctx bisectCtx, s *scratch, fixed []int, slack float64, opts Options, out []int,
	left, right branchWork) error {

	if ctx.pool.tryAcquire() {
		ctx.sc.branch(true)
		spawn, inline := left, right
		spawnedLeft := true
		if left.sub.NumPins() >= right.sub.NumPins() {
			spawn, inline = right, left
			spawnedLeft = false
		}
		t := branchPool.Get().(*branchTask)
		t.ctx, t.b = ctx, spawn
		t.fixed, t.slack, t.opts, t.out = fixed, slack, opts, out
		t.g.Go(t, 0)
		errInline := recursiveBisect(ctx, inline.sub, inline.ids, fixed, inline.kLo, inline.k, slack, opts, inline.r, out, s)
		t.g.Wait()
		errSpawn := t.err
		putBranch(t)
		errL, errR := errSpawn, errInline
		if !spawnedLeft {
			errL, errR = errInline, errSpawn
		}
		if errL != nil {
			return errL
		}
		return errR
	}
	ctx.sc.branch(false)
	if err := recursiveBisect(ctx, left.sub, left.ids, fixed, left.kLo, left.k, slack, opts, left.r, out, s); err != nil {
		return err
	}
	return recursiveBisect(ctx, right.sub, right.ids, fixed, right.kLo, right.k, slack, opts, right.r, out, s)
}
