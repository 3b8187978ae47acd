// Package gpart implements a multilevel graph partitioner in the style
// of MeTiS (Karypis & Kumar), used as the paper's baseline: the standard
// graph model for 1D sparse matrix decomposition is partitioned with
// this algorithm. The scheme mirrors internal/hgpart: heavy-edge
// matching coarsening, greedy graph growing + random initial bisections,
// boundary FM refinement on the edge-cut objective, and recursive
// bisection with proportional target weights for general K. Recursion
// branches run in parallel on the process-wide executor
// (internal/par); see parallel.go.
package gpart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"finegrain/internal/graph"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// ErrInfeasible reports that no balanced partition could be produced.
var ErrInfeasible = errors.New("gpart: no feasible balanced partition found")

// Options configures the partitioner; see DefaultOptions. The
// remaining settings of the algorithm are the package constants below.
type Options struct {
	// Seed drives every random choice.
	Seed uint64
	// Eps is the allowed final imbalance ε in W_k ≤ W_avg(1+ε).
	Eps float64
	// Workers bounds the goroutines one Partition call uses
	// (0 = GOMAXPROCS). The partition is identical for every Workers
	// value given the same Seed.
	Workers int
	// Trace, when non-nil, records phase spans (the run, each
	// bisection, coarsening level and refinement) for Chrome
	// trace-event export. Tracing never consumes randomness or alters a
	// partitioning decision; nil (the default) makes every span call a
	// free no-op.
	Trace *obs.Trace
	// Ctx, when non-nil, lets the caller abandon a partition mid-search:
	// the partitioner polls it at phase boundaries (each bisection, each
	// coarsening level, each FM pass) and returns the context's error.
	// Cancellation never consumes randomness, so a run that is not
	// canceled is bitwise identical whether or not a context was set.
	Ctx context.Context
}

// The fixed settings of the multilevel algorithm, the same as
// internal/hgpart's for a fair baseline.
const (
	// coarsenTo stops coarsening at this vertex count.
	coarsenTo = 100
	// maxLevels bounds coarsening depth.
	maxLevels = 40
	// initTrials is the number of initial-bisection attempts.
	initTrials = 8
	// fmPasses bounds FM passes per level.
	fmPasses = 4
	// maxNegMoves ends an FM pass after this many consecutive
	// non-improving moves.
	maxNegMoves = 100
)

// canceled reports the context's error, if a context was set and it has
// fired. It is polled on hot-path phase boundaries, so it must stay a
// plain nil check plus ctx.Err().
func (o *Options) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// DefaultOptions mirrors hgpart.DefaultOptions for a fair baseline:
// seed 1 and ε = 3%.
func DefaultOptions() Options {
	return Options{Seed: 1, Eps: 0.03}
}

func (o *Options) normalize() {
	if o.Eps <= 0 {
		o.Eps = 0.03
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

func bisectionEps(eps float64, k int) float64 {
	depth := 0
	for p := 1; p < k; p *= 2 {
		depth++
	}
	if depth <= 1 {
		return eps
	}
	return math.Pow(1+eps, 1/float64(depth)) - 1
}

// Partition computes a K-way partition of g minimizing edge cut subject
// to the balance criterion with the configured ε.
func Partition(g *graph.Graph, k int, opts Options) (*graph.Partition, error) {
	opts.normalize()
	if k < 1 {
		return nil, fmt.Errorf("gpart: K must be >= 1, got %d", k)
	}
	if g.NumVertices() == 0 {
		return nil, errors.New("gpart: empty graph")
	}
	if k > g.NumVertices() {
		return nil, fmt.Errorf("gpart: K=%d exceeds vertex count %d", k, g.NumVertices())
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	if k == 1 {
		return graph.NewPartition(g.NumVertices(), 1), nil
	}
	var tk *obs.Track
	if opts.Trace.Enabled() {
		tk = opts.Trace.NewTrack("gpart run 0")
	}
	rsp := tk.Begin("gpart", "run").Arg("k", int64(k))
	r := rng.New(opts.Seed + 0x9e3779b97f4a7c15)
	parts := make([]int, g.NumVertices())
	ids := make([]int, g.NumVertices())
	for i := range ids {
		ids[i] = i
	}
	rc := newRecursion(opts, bisectionEps(opts.Eps, k), parts, tk)
	err := rc.bisect(g, ids, 0, k, r, tk, new(scratch))
	rsp.End()
	if err != nil {
		if ctxErr := opts.canceled(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	p := &graph.Partition{K: k, Parts: parts}
	kwayBalance(g, p, opts.Eps)
	return p, nil
}

// bisect splits sub, whose vertex v is vertex ids[v] of the input, into
// parts kLo..kLo+k−1 of out. tk and s belong to the calling goroutine.
func (rc *recursion) bisect(sub *graph.Graph, ids []int, kLo, k int, r *rng.RNG,
	tk *obs.Track, s *scratch) error {

	// A zero-weight side can come back empty; its parts stay empty.
	// Each branch has its own r.Child(), so skipping one moves no other
	// branch's random stream.
	if len(ids) == 0 {
		return nil
	}
	if k == 1 {
		for _, gid := range ids {
			rc.out[gid] = kLo
		}
		return nil
	}
	if err := rc.opts.canceled(); err != nil {
		return err
	}
	sp := tk.Begin("gpart", "bisect").
		Arg("k", int64(k)).Arg("kLo", int64(kLo)).Arg("vertices", int64(sub.NumVertices()))
	defer sp.End()
	kL := k / 2
	kR := k - kL
	side, err := multilevelBisect(sub, kL, kR, rc.epsB, rc.opts, r, tk, s)
	if err != nil {
		return err
	}
	leftG, leftIDs := inducedSide(sub, ids, side, 0, s)
	rightG, rightIDs := inducedSide(sub, ids, side, 1, s)
	// Both child streams are drawn before either branch runs. The left
	// branch never touches r, so they are the streams a serial
	// left-then-right recursion draws, whichever goroutine runs them.
	rL, rR := r.Child(), r.Child()
	if kR > 1 && len(rightIDs) > 0 {
		if slot, ok := rc.tryAcquire(); ok {
			t := &branchTask{rc: rc, slot: slot, sub: rightG, ids: rightIDs, kLo: kLo + kL, k: kR, r: rR}
			t.g.Go(t, 0)
			errL := rc.bisect(leftG, leftIDs, kLo, kL, rL, tk, s)
			t.g.Wait()
			if errL != nil {
				return errL
			}
			return t.err
		}
	}
	if err := rc.bisect(leftG, leftIDs, kLo, kL, rL, tk, s); err != nil {
		return err
	}
	return rc.bisect(rightG, rightIDs, kLo+kL, kR, rR, tk, s)
}

// inducedSide extracts the subgraph of one side; cut edges are dropped
// (edge cut decomposes additively over recursion levels). The kept
// vertices are renumbered in order, so the map is monotone and every
// copied neighbour list stays sorted: one counting pass sizes the CSR
// and a second fills it.
func inducedSide(g *graph.Graph, ids []int, side []int8, want int8, s *scratch) (*graph.Graph, []int) {
	numV := g.NumVertices()
	local := grow(s.local, numV)
	s.local = local
	n := 0
	for v := 0; v < numV; v++ {
		if side[v] == want {
			local[v] = n
			n++
		} else {
			local[v] = -1
		}
	}
	subIDs := make([]int, n)
	vw := make([]int, n)
	adjPtr := make([]int, n+1)
	for v := 0; v < numV; v++ {
		lv := local[v]
		if lv < 0 {
			continue
		}
		subIDs[lv] = ids[v]
		vw[lv] = g.VertexWeight(v)
		kept := 0
		to, _ := g.Adj(v)
		for _, u := range to {
			if local[u] >= 0 {
				kept++
			}
		}
		adjPtr[lv+1] = adjPtr[lv] + kept
	}
	adjTo := make([]int, adjPtr[n])
	adjW := make([]int, adjPtr[n])
	for v := 0; v < numV; v++ {
		lv := local[v]
		if lv < 0 {
			continue
		}
		pos := adjPtr[lv]
		to, w := g.Adj(v)
		for i, u := range to {
			if lu := local[u]; lu >= 0 {
				adjTo[pos], adjW[pos] = lu, w[i]
				pos++
			}
		}
	}
	return graph.FromCSR(adjPtr, adjTo, adjW, vw), subIDs
}

// multilevelBisect returns the side of each vertex of g. The slice may
// be one of s's projection buffers, valid until s's next bisection.
func multilevelBisect(g *graph.Graph, kL, kR int, epsB float64,
	opts Options, r *rng.RNG, tk *obs.Track, s *scratch) ([]int8, error) {

	totalW := g.TotalVertexWeight()
	targetL := float64(totalW) * float64(kL) / float64(kL+kR)
	targets := [2]float64{targetL, float64(totalW) - targetL}
	maxW := [2]float64{targets[0] * (1 + epsB), targets[1] * (1 + epsB)}
	for s := 0; s < 2; s++ {
		if maxW[s] < targets[s]+1 {
			maxW[s] = targets[s] + 1
		}
	}

	csp := tk.Begin("gpart", "coarsen").Arg("vertices", int64(g.NumVertices()))
	levels := coarsen(g, opts, r, tk, s)
	csp.Arg("levels", int64(len(levels))).End()
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	coarsest := levels[len(levels)-1]

	// Relax each level's cap by its heaviest vertex: coarse clusters
	// can outweigh the strict slack, and the bound tightens again as
	// the partition is projected onto finer levels.
	capsFor := func(gg *graph.Graph) [2]float64 {
		mw := 0
		for v := 0; v < gg.NumVertices(); v++ {
			if w := gg.VertexWeight(v); w > mw {
				mw = w
			}
		}
		caps := maxW
		for s := 0; s < 2; s++ {
			if relaxed := targets[s] + float64(mw); relaxed > caps[s] {
				caps[s] = relaxed
			}
		}
		return caps
	}

	coarseCaps := capsFor(coarsest.g)
	isp := tk.Begin("gpart", "initial.bisect").Arg("vertices", int64(coarsest.g.NumVertices()))
	side, err := initialBisect(coarsest.g, targets, maxW, coarseCaps, opts, r, s)
	isp.End()
	if err != nil {
		return nil, err
	}
	rsp := tk.Begin("gpart", "refine").Arg("vertices", int64(coarsest.g.NumVertices()))
	refineBisection(coarsest.g, side, maxW, coarseCaps, opts, r, s)
	rsp.End()
	fineCaps := coarseCaps
	for i := len(levels) - 2; i >= 0; i-- {
		if err := opts.canceled(); err != nil {
			return nil, err
		}
		lv := levels[i]
		fine := grow(s.proj[i%2], lv.g.NumVertices())
		s.proj[i%2] = fine
		for v := range fine {
			fine[v] = side[lv.cmap[v]]
		}
		side = fine
		fineCaps = capsFor(lv.g)
		rsp := tk.Begin("gpart", "refine").Arg("vertices", int64(lv.g.NumVertices()))
		refineBisection(lv.g, side, maxW, fineCaps, opts, r, s)
		rsp.End()
	}
	var w [2]float64
	for v, sd := range side {
		w[sd] += float64(g.VertexWeight(v))
	}
	if w[0] > fineCaps[0]+1e-9 || w[1] > fineCaps[1]+1e-9 {
		return nil, ErrInfeasible
	}
	return side, nil
}
