package hgpart

import (
	"errors"
	"fmt"
	"time"

	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// ErrInfeasible reports that no balanced partition could be produced for
// the requested K and ε.
var ErrInfeasible = errors.New("hgpart: no feasible balanced partition found")

// Partition computes a K-way partition of h minimizing the
// connectivity−1 cutsize (definition (3) of the paper) subject to the
// balance criterion (1) with the configured ε.
func Partition(h *hypergraph.Hypergraph, k int, opts Options) (*hypergraph.Partition, error) {
	return PartitionFixed(h, k, nil, opts)
}

// PartitionFixed is Partition with pre-assigned vertices: fixed[v] = p
// forces vertex v into part p; fixed[v] = −1 leaves it free. A nil fixed
// slice means all vertices are free. This implements the paper's
// extension for reduction problems whose inputs/outputs are pre-assigned
// to processors ("those part vertices must be fixed to corresponding
// parts during the partitioning").
func PartitionFixed(h *hypergraph.Hypergraph, k int, fixed []int, opts Options) (*hypergraph.Partition, error) {
	p, _, err := PartitionFixedStats(h, k, fixed, opts)
	return p, err
}

// PartitionStats is Partition returning the per-phase Stats record
// (non-nil only when opts.CollectStats is set).
func PartitionStats(h *hypergraph.Hypergraph, k int, opts Options) (*hypergraph.Partition, *Stats, error) {
	return PartitionFixedStats(h, k, nil, opts)
}

// PartitionFixedStats is PartitionFixed returning the Stats record
// (non-nil only when opts.CollectStats is set). The branches of the
// recursive bisection, and the round chunks of large levels, execute
// concurrently on at most opts.Workers goroutines; the result is
// bitwise identical for every Workers value given the same Seed.
func PartitionFixedStats(h *hypergraph.Hypergraph, k int, fixed []int, opts Options) (*hypergraph.Partition, *Stats, error) {
	opts.normalize()
	if k < 1 {
		return nil, nil, fmt.Errorf("hgpart: K must be >= 1, got %d", k)
	}
	if h.NumVertices() == 0 {
		return nil, nil, errors.New("hgpart: empty hypergraph")
	}
	if k > h.NumVertices() {
		return nil, nil, fmt.Errorf("hgpart: K=%d exceeds vertex count %d", k, h.NumVertices())
	}
	if fixed != nil && len(fixed) != h.NumVertices() {
		return nil, nil, fmt.Errorf("hgpart: fixed slice length %d, want %d", len(fixed), h.NumVertices())
	}
	if fixed != nil {
		for v, p := range fixed {
			if p < -1 || p >= k {
				return nil, nil, fmt.Errorf("hgpart: fixed[%d] = %d out of [-1,%d)", v, p, k)
			}
		}
	}
	if err := opts.Canceled(); err != nil {
		return nil, nil, err
	}
	if k == 1 {
		p := hypergraph.NewPartition(h.NumVertices(), 1)
		return p, nil, nil
	}

	var sc *statsCollector
	var start time.Time
	if opts.CollectStats {
		sc = &statsCollector{}
		start = time.Now()
	}
	ctx := bisectCtx{sc: sc, top: true}
	if opts.Trace.Enabled() {
		ctx.tk = opts.Trace.NewTrack("hgpart run 0")
	}
	c, s := sched.Begin(opts.Workers, ctx.tk)
	defer c.End()
	ctx.call = c
	sc.enter()
	p, err := partitionRun(h, k, fixed, opts, ctx, s)
	sc.leave()
	if err != nil {
		return nil, nil, err
	}
	var stats *Stats
	if sc != nil {
		stats = sc.finish(time.Since(start), opts.Workers)
	}
	return p, stats, nil
}

// partitionRun executes the multilevel recursive bisection end to end
// and balances the K-way result. s is the caller's arena; branches and
// round helpers on worker slots use their slots' arenas.
func partitionRun(h *hypergraph.Hypergraph, k int, fixed []int, opts Options, ctx bisectCtx, s *scratch) (*hypergraph.Partition, error) {
	sp := ctx.tk.Begin("hgpart", "run").Arg("k", int64(k))
	defer sp.End()
	r := opts.NewRNG()
	parts := make([]int, h.NumVertices())
	ids := make([]int, h.NumVertices())
	for i := range ids {
		ids[i] = i
	}
	root := branch{ctx: ctx, sub: h, ids: ids, fixed: fixed, k: k, slack: opts.Eps, opts: opts, r: r, out: parts}
	if err := root.Run(ctx.tk, s, false); err != nil {
		return nil, err
	}
	p := &hypergraph.Partition{K: k, Parts: parts}
	mlpart.Balance(k, parts, h.VertexWeights(), fixed, opts.Eps, func(v, from, to int) int {
		return p.MoveDelta(h, v, from, to)
	})
	return p, nil
}

// sched holds hgpart's scratch arenas and spawn tasks across calls.
// The branches of each bisection fork on the call's Options.Workers − 1
// worker slots, which the round helpers of large coarsening and FM
// levels (rounds.go) share; a branch spawned onto a slot records on the
// slot's "hgpart worker" trace track.
var sched = mlpart.Scheduler[scratch, branch]{Track: "hgpart worker"}

// bisectCtx threads the call's worker slots, stats collector, and trace
// track through the recursion. top marks the first bisection, whose
// coarsening ladder and initial cut the Stats record describes. tk is
// the trace track owned by the current goroutine (nil when tracing is
// off).
type bisectCtx struct {
	call *mlpart.Call[scratch, branch]
	sc   *statsCollector
	tk   *obs.Track
	top  bool
}

// branch is one recursion node: the sub-hypergraph sub, whose vertex v
// is vertex ids[v] of the input, goes to parts [kLo, kLo+k) of out.
// Sibling branches may run on concurrent goroutines: they operate on
// disjoint sub-hypergraphs and write disjoint entries of out, and their
// RNG streams are derived before either starts, so the result is
// schedule-independent.
//
// slack is the imbalance budget remaining on this subtree (the
// caller's ε at the root). Each node spends (1+ε′) of it on its own
// bisection — ε′ sized so the deepest path below fits — and passes the
// rest down, so every root-to-leaf product of per-level slacks
// telescopes to exactly 1+ε no matter how unevenly a non-power-of-two
// K splits.
type branch struct {
	ctx   bisectCtx
	sub   *hypergraph.Hypergraph
	ids   []int
	fixed []int
	kLo   int
	k     int
	slack float64
	opts  Options
	r     *rng.RNG
	out   []int
}

func (b branch) Splits() bool { return b.k > 1 && len(b.ids) > 0 }

// Size is the branch's pin count.
func (b branch) Size() int { return b.sub.NumPins() }

// Run bisects the branch on track tk with arena s and forks its two
// sides.
func (b branch) Run(tk *obs.Track, s *scratch, spawned bool) error {
	ctx, sub, ids, kLo, k := b.ctx, b.sub, b.ids, b.kLo, b.k
	ctx.tk = tk
	if spawned {
		ctx.sc.enter()
		defer ctx.sc.leave()
	}
	if err := b.opts.Canceled(); err != nil {
		return err
	}
	if k == 1 {
		for _, g := range ids {
			b.out[g] = kLo
		}
		return nil
	}
	sp := ctx.tk.Begin("hgpart", "bisect").
		Arg("k", int64(k)).Arg("kLo", int64(kLo)).Arg("vertices", int64(sub.NumVertices()))
	defer sp.End()

	epsB := mlpart.BisectionEps(b.slack, k)
	childSlack := (1+b.slack)/(1+epsB) - 1
	kL := k / 2
	kR := k - kL
	// Side of each fixed vertex at this bisection level, derived from
	// its final part index.
	fixedSide := make([]int8, sub.NumVertices())
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	if b.fixed != nil {
		for local, g := range ids {
			if p := b.fixed[g]; p >= 0 {
				if p < kLo+kL {
					fixedSide[local] = 0
				} else {
					fixedSide[local] = 1
				}
			}
		}
	}

	side, err := multilevelBisect(ctx, sub, fixedSide, kL, kR, epsB, b.opts, b.r, s)
	if err != nil {
		return err
	}

	// Split vertices and nets; cut nets are kept on both sides (net
	// splitting), because further subdividing their pins on one side
	// increases λ and therefore volume.
	leftHG, leftIDs := inducedSide(sub, ids, side, 0, s)
	rightHG, rightIDs := inducedSide(sub, ids, side, 1, s)
	// Both child streams are derived here, in the serial order (left
	// first), before either branch can run.
	rL, rR := b.r.Child(), b.r.Child()
	ctx.top = false
	forked, err := ctx.call.Fork(ctx.tk, s,
		branch{ctx: ctx, sub: leftHG, ids: leftIDs, fixed: b.fixed, kLo: kLo, k: kL, slack: childSlack, opts: b.opts, r: rL, out: b.out},
		branch{ctx: ctx, sub: rightHG, ids: rightIDs, fixed: b.fixed, kLo: kLo + kL, k: kR, slack: childSlack, opts: b.opts, r: rR, out: b.out})
	ctx.sc.branch(forked)
	return err
}

// inducedSide builds the sub-hypergraph of vertices with side[v] == want.
// Nets keep their cost; nets with fewer than two pins on the side are
// dropped (they can never be cut again). The sub-hypergraph's arrays are
// sized exactly and filled in one pass each (pins stay sorted because
// local ids are assigned in ascending vertex order); only the result and
// the id map allocate — counting state lives in the scratch arena.
func inducedSide(h *hypergraph.Hypergraph, ids []int, side []int8, want int8, s *scratch) (*hypergraph.Hypergraph, []int) {
	numV := h.NumVertices()
	local := mlpart.Grow(s.vlocal, numV)
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
	for v := 0; v < numV; v++ {
		if lv := local[v]; lv >= 0 {
			subIDs[lv] = ids[v]
			vw[lv] = h.VertexWeight(v)
		}
	}
	keep := s.keep[:0]
	totalPins := 0
	for net := 0; net < h.NumNets(); net++ {
		c := 0
		for _, v := range h.Pins(net) {
			if side[v] == want {
				c++
			}
		}
		if c >= 2 {
			keep = append(keep, net)
			totalPins += c
		}
	}
	xpins := make([]int, len(keep)+1)
	pins := make([]int, totalPins)
	cost := make([]int, len(keep))
	pos := 0
	for newNet, net := range keep {
		xpins[newNet] = pos
		for _, v := range h.Pins(net) {
			if lv := local[v]; lv >= 0 {
				pins[pos] = lv
				pos++
			}
		}
		cost[newNet] = h.NetCost(net)
	}
	xpins[len(keep)] = pos
	s.vlocal, s.keep = local, keep
	return hypergraph.FromCompact(vw, cost, xpins, pins), subIDs
}

// multilevelBisect runs coarsen → initial bisect → refine and returns a
// 0/1 side per vertex of h. Targets are proportional to kL:kR. The
// returned side slice is scratch-owned (one of scr.proj); it stays valid
// only until the caller's next use of the arena (branch.Run copies
// it into the induced sub-hypergraphs before recursing).
func multilevelBisect(ctx bisectCtx, h *hypergraph.Hypergraph, fixedSide []int8, kL, kR int,
	epsB float64, opts Options, r *rng.RNG, scr *scratch) ([]int8, error) {

	sc := ctx.sc
	bounds := mlpart.NewBounds(h.TotalVertexWeight(), kL, kR, epsB)

	var t0 time.Time
	if sc.enabled() {
		t0 = time.Now()
	}
	csp := ctx.tk.Begin("hgpart", "coarsen").Arg("vertices", int64(h.NumVertices()))
	levels := coarsen(ctx, h, fixedSide, bounds.Strict, opts, r, scr)
	csp.Arg("levels", int64(len(levels))).End()
	var coarsenD time.Duration
	if sc.enabled() {
		coarsenD = time.Since(t0)
	}
	if err := opts.Canceled(); err != nil {
		return nil, err
	}
	coarsest := levels[len(levels)-1]

	coarseCaps := bounds.Caps(coarsest.h.VertexWeights())
	if sc.enabled() {
		t0 = time.Now()
	}
	isp := ctx.tk.Begin("hgpart", "initial.bisect").
		Arg("vertices", int64(coarsest.h.NumVertices())).Arg("trials", mlpart.InitTrials)
	side, err := initialBisect(ctx, coarsest.h, coarsest.fixedSide, bounds.Targets, bounds.Strict, coarseCaps, opts, r, scr)
	isp.End()
	if err != nil {
		return nil, err
	}
	var initialD time.Duration
	if sc.enabled() {
		initialD = time.Since(t0)
		t0 = time.Now()
	}
	refineBisection(ctx, coarsest.h, side, coarsest.fixedSide, bounds.Strict, coarseCaps, opts, r, scr)

	// Project back through the levels, refining at each. The two
	// scr.proj buffers ping-pong: initialBisect returned proj[0], so the
	// first projection writes proj[1], the next proj[0], and so on.
	fineCaps := coarseCaps
	cur := 0
	for i := len(levels) - 2; i >= 0; i-- {
		if err := opts.Canceled(); err != nil {
			return nil, err
		}
		lv := levels[i]
		cur = 1 - cur
		scr.proj[cur] = mlpart.Grow(scr.proj[cur], lv.h.NumVertices())
		fine := scr.proj[cur]
		for v := range fine {
			fine[v] = side[lv.cmap[v]]
		}
		side = fine
		fineCaps = bounds.Caps(lv.h.VertexWeights())
		refineBisection(ctx, lv.h, side, lv.fixedSide, bounds.Strict, fineCaps, opts, r, scr)
	}
	if sc.enabled() {
		sc.addBisection(coarsenD, initialD, time.Since(t0))
	}

	// Final feasibility check against the finest-level caps (strict
	// ε-balance when vertex weights allow it).
	if !mlpart.Within(mlpart.SideWeights(h.VertexWeights(), side), fineCaps) {
		return nil, ErrInfeasible
	}
	return side, nil
}
