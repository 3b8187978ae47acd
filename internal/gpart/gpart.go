// Package gpart implements a multilevel graph partitioner in the style
// of MeTiS (Karypis & Kumar), used as the paper's baseline: the standard
// graph model for 1D sparse matrix decomposition is partitioned with
// this algorithm. It runs internal/hgpart's scheme on a graph, with the
// options, constants, balance caps, gain buckets and K-way balancer of
// internal/mlpart: heavy-edge matching coarsening, greedy graph growing
// + random initial bisections, boundary FM refinement on the edge-cut
// objective, and recursive bisection with proportional target weights
// for general K. Recursion
// branches run in parallel under mlpart's recursion scheduler.
package gpart

import (
	"errors"
	"fmt"

	"finegrain/internal/graph"
	"finegrain/internal/mlpart"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// ErrInfeasible reports that no balanced partition could be produced.
var ErrInfeasible = errors.New("gpart: no feasible balanced partition found")

// Partition computes a K-way partition of g minimizing edge cut subject
// to the balance criterion with the configured ε.
func Partition(g *graph.Graph, k int, opts mlpart.Options) (*graph.Partition, error) {
	opts.Normalize()
	if k < 1 {
		return nil, fmt.Errorf("gpart: K must be >= 1, got %d", k)
	}
	if g.NumVertices() == 0 {
		return nil, errors.New("gpart: empty graph")
	}
	if k > g.NumVertices() {
		return nil, fmt.Errorf("gpart: K=%d exceeds vertex count %d", k, g.NumVertices())
	}
	if err := opts.Canceled(); err != nil {
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
	r := opts.NewRNG()
	parts := make([]int, g.NumVertices())
	ids := make([]int, g.NumVertices())
	for i := range ids {
		ids[i] = i
	}
	// Every bisection spends the same ε′, sized for the deepest path;
	// hgpart's telescoping slack budget would change graph partitions
	// at K that are not powers of two.
	c, s := sched.Begin(opts.Workers, tk)
	rc := &recursion{opts: opts, epsB: mlpart.BisectionEps(opts.Eps, k), out: parts, call: c}
	err := branch{rc: rc, sub: g, ids: ids, k: k, r: r}.Run(tk, s, false)
	c.End()
	rsp.End()
	if err != nil {
		if ctxErr := opts.Canceled(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	p := &graph.Partition{K: k, Parts: parts}
	mlpart.Balance(k, parts, g.VertexWeights(), nil, opts.Eps, func(v, from, to int) int {
		return p.MoveDelta(g, v, from, to)
	})
	return p, nil
}

// sched holds gpart's scratch arenas and spawn tasks across calls. A
// branch spawned onto a worker slot records on the slot's
// "gpart worker" trace track.
var sched = mlpart.Scheduler[scratch, branch]{Track: "gpart worker"}

// recursion is the state the branches of one Partition call share.
type recursion struct {
	opts mlpart.Options
	epsB float64
	out  []int
	call *mlpart.Call[scratch, branch]
}

// branch is one recursion node: sub, whose vertex v is vertex ids[v]
// of the input, goes to parts kLo..kLo+k−1 of out.
type branch struct {
	rc  *recursion
	sub *graph.Graph
	ids []int
	kLo int
	k   int
	r   *rng.RNG
}

func (b branch) Splits() bool { return b.k > 1 && len(b.ids) > 0 }

// Size is the branch's edge count.
func (b branch) Size() int { return b.sub.NumEdges() }

// Run bisects the branch and forks its two sides. tk and s belong to
// the calling goroutine.
func (b branch) Run(tk *obs.Track, s *scratch, _ bool) error {
	rc, kLo, k := b.rc, b.kLo, b.k
	// A zero-weight side can come back empty; its parts stay empty.
	// Each branch has its own r.Child(), so skipping one moves no other
	// branch's random stream.
	if len(b.ids) == 0 {
		return nil
	}
	if k == 1 {
		for _, gid := range b.ids {
			rc.out[gid] = kLo
		}
		return nil
	}
	if err := rc.opts.Canceled(); err != nil {
		return err
	}
	sp := tk.Begin("gpart", "bisect").
		Arg("k", int64(k)).Arg("kLo", int64(kLo)).Arg("vertices", int64(b.sub.NumVertices()))
	defer sp.End()
	kL := k / 2
	kR := k - kL
	side, err := multilevelBisect(b.sub, kL, kR, rc.epsB, rc.opts, b.r, tk, s)
	if err != nil {
		return err
	}
	leftG, leftIDs := inducedSide(b.sub, b.ids, side, 0, s)
	rightG, rightIDs := inducedSide(b.sub, b.ids, side, 1, s)
	// Both child streams are drawn before either branch runs. The left
	// branch never touches r, so they are the streams a serial
	// left-then-right recursion draws, whichever goroutine runs them.
	rL, rR := b.r.Child(), b.r.Child()
	_, err = rc.call.Fork(tk, s,
		branch{rc: rc, sub: leftG, ids: leftIDs, kLo: kLo, k: kL, r: rL},
		branch{rc: rc, sub: rightG, ids: rightIDs, kLo: kLo + kL, k: kR, r: rR})
	return err
}

// inducedSide extracts the subgraph of one side; cut edges are dropped
// (edge cut decomposes additively over recursion levels). The kept
// vertices are renumbered in order, so the map is monotone and every
// copied neighbour list stays sorted: one counting pass sizes the CSR
// and a second fills it.
func inducedSide(g *graph.Graph, ids []int, side []int8, want int8, s *scratch) (*graph.Graph, []int) {
	numV := g.NumVertices()
	local := mlpart.Grow(s.local, numV)
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
	opts mlpart.Options, r *rng.RNG, tk *obs.Track, s *scratch) ([]int8, error) {

	bounds := mlpart.NewBounds(g.TotalVertexWeight(), kL, kR, epsB)
	csp := tk.Begin("gpart", "coarsen").Arg("vertices", int64(g.NumVertices()))
	levels := coarsen(g, opts, r, tk, s)
	csp.Arg("levels", int64(len(levels))).End()
	if err := opts.Canceled(); err != nil {
		return nil, err
	}
	coarsest := levels[len(levels)-1]

	coarseCaps := bounds.Caps(coarsest.g.VertexWeights())
	isp := tk.Begin("gpart", "initial.bisect").Arg("vertices", int64(coarsest.g.NumVertices()))
	side, err := initialBisect(coarsest.g, bounds.Targets, bounds.Strict, coarseCaps, opts, r, s)
	isp.End()
	if err != nil {
		return nil, err
	}
	rsp := tk.Begin("gpart", "refine").Arg("vertices", int64(coarsest.g.NumVertices()))
	refineBisection(coarsest.g, side, bounds.Strict, coarseCaps, opts, r, s)
	rsp.End()
	fineCaps := coarseCaps
	for i := len(levels) - 2; i >= 0; i-- {
		if err := opts.Canceled(); err != nil {
			return nil, err
		}
		lv := levels[i]
		fine := mlpart.Grow(s.proj[i%2], lv.g.NumVertices())
		s.proj[i%2] = fine
		for v := range fine {
			fine[v] = side[lv.cmap[v]]
		}
		side = fine
		fineCaps = bounds.Caps(lv.g.VertexWeights())
		rsp := tk.Begin("gpart", "refine").Arg("vertices", int64(lv.g.NumVertices()))
		refineBisection(lv.g, side, bounds.Strict, fineCaps, opts, r, s)
		rsp.End()
	}
	if !mlpart.Within(mlpart.SideWeights(g.VertexWeights(), side), fineCaps) {
		return nil, ErrInfeasible
	}
	return side, nil
}
