package hgpart

import (
	"errors"
	"fmt"
	"time"

	"finegrain/internal/hypergraph"
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
// concurrently under a bounded worker pool of opts.Workers goroutines;
// the result is bitwise identical for every Workers value given the
// same Seed.
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
	if err := opts.canceled(); err != nil {
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
	ctx := bisectCtx{pool: newWorkerPool(opts.Workers - 1), sc: sc, top: true}
	if opts.Trace.Enabled() {
		ctx.tk = opts.Trace.NewTrack("hgpart run 0")
	}
	s := getScratch()
	defer putScratch(s)
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
// and balances the K-way result. s is the caller's pooled arena; it
// serves the entire recursion, while branches that fork onto other
// workers use those workers' own arenas.
func partitionRun(h *hypergraph.Hypergraph, k int, fixed []int, opts Options, ctx bisectCtx, s *scratch) (*hypergraph.Partition, error) {
	sp := ctx.tk.Begin("hgpart", "run").Arg("k", int64(k))
	defer sp.End()
	r := opts.newRNG()
	parts := make([]int, h.NumVertices())
	ids := make([]int, h.NumVertices())
	for i := range ids {
		ids[i] = i
	}
	if err := recursiveBisect(ctx, h, ids, fixed, 0, k, opts.Eps, opts, r, parts, s); err != nil {
		return nil, err
	}
	p := &hypergraph.Partition{K: k, Parts: parts}
	kwayBalance(h, p, fixed, opts.Eps)
	return p, nil
}

// recursiveBisect partitions the sub-hypergraph induced by ids (global
// vertex indices into h, with sub being the current working hypergraph
// when non-nil) into parts [kLo, kLo+k). Sibling branches may run on
// concurrent goroutines: they operate on disjoint sub-hypergraphs and
// write disjoint entries of out, and their RNG streams are derived
// before either starts, so the result is schedule-independent.
//
// slack is the imbalance budget remaining on this subtree (the
// caller's ε at the root). Each node spends (1+ε′) of it on its own
// bisection — ε′ sized so the deepest path below fits — and passes the
// rest down, so every root-to-leaf product of per-level slacks
// telescopes to exactly 1+ε no matter how unevenly a non-power-of-two
// K splits.
func recursiveBisect(ctx bisectCtx, sub *hypergraph.Hypergraph, ids []int, fixed []int,
	kLo, k int, slack float64, opts Options, r *rng.RNG, out []int, s *scratch) error {

	if err := opts.canceled(); err != nil {
		return err
	}
	if k == 1 {
		for _, g := range ids {
			out[g] = kLo
		}
		return nil
	}
	sp := ctx.tk.Begin("hgpart", "bisect").
		Arg("k", int64(k)).Arg("kLo", int64(kLo)).Arg("vertices", int64(sub.NumVertices()))
	defer sp.End()

	epsB := bisectionEps(slack, k)
	childSlack := (1+slack)/(1+epsB) - 1
	kL := k / 2
	kR := k - kL
	// Side of each fixed vertex at this bisection level, derived from
	// its final part index.
	fixedSide := make([]int8, sub.NumVertices())
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	if fixed != nil {
		for local, g := range ids {
			if p := fixed[g]; p >= 0 {
				if p < kLo+kL {
					fixedSide[local] = 0
				} else {
					fixedSide[local] = 1
				}
			}
		}
	}

	side, err := multilevelBisect(ctx, sub, fixedSide, kL, kR, epsB, opts, r, s)
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
	rs := r.Children(2)
	return forkJoin(ctx.child(), s, fixed, childSlack, opts, out,
		branchWork{sub: leftHG, ids: leftIDs, kLo: kLo, k: kL, r: rs[0]},
		branchWork{sub: rightHG, ids: rightIDs, kLo: kLo + kL, k: kR, r: rs[1]})
}

// inducedSide builds the sub-hypergraph of vertices with side[v] == want.
// Nets keep their cost; nets with fewer than two pins on the side are
// dropped (they can never be cut again). The sub-hypergraph's arrays are
// sized exactly and filled in one pass each (pins stay sorted because
// local ids are assigned in ascending vertex order); only the result and
// the id map allocate — counting state lives in the scratch arena.
func inducedSide(h *hypergraph.Hypergraph, ids []int, side []int8, want int8, s *scratch) (*hypergraph.Hypergraph, []int) {
	numV := h.NumVertices()
	local := grow(s.vlocal, numV)
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
	s.keep = keep
	return hypergraph.FromCompact(vw, cost, xpins, pins), subIDs
}

// multilevelBisect runs coarsen → initial bisect → refine and returns a
// 0/1 side per vertex of h. Targets are proportional to kL:kR. The
// returned side slice is scratch-owned (one of scr.proj); it stays valid
// only until the caller's next use of the arena (recursiveBisect copies
// it into the induced sub-hypergraphs before recursing).
func multilevelBisect(ctx bisectCtx, h *hypergraph.Hypergraph, fixedSide []int8, kL, kR int,
	epsB float64, opts Options, r *rng.RNG, scr *scratch) ([]int8, error) {

	sc := ctx.sc
	totalW := h.TotalVertexWeight()
	targetL := float64(totalW) * float64(kL) / float64(kL+kR)
	targets := [2]float64{targetL, float64(totalW) - targetL}
	maxW := [2]float64{targets[0] * (1 + epsB), targets[1] * (1 + epsB)}
	// With unit weights and odd counts, the strict bound can be
	// infeasible; always allow at least ceil(target) plus the heaviest
	// single free vertex's slack at tiny sizes.
	for s := 0; s < 2; s++ {
		if maxW[s] < targets[s]+1 {
			maxW[s] = targets[s] + 1
		}
	}

	var t0 time.Time
	if sc.enabled() {
		t0 = time.Now()
	}
	csp := ctx.tk.Begin("hgpart", "coarsen").Arg("vertices", int64(h.NumVertices()))
	levels := coarsen(ctx, h, fixedSide, maxW, opts, r, scr)
	csp.Arg("levels", int64(len(levels))).End()
	var coarsenD time.Duration
	if sc.enabled() {
		coarsenD = time.Since(t0)
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	coarsest := levels[len(levels)-1]

	// Per-level caps: a level whose vertices (clusters) are heavier
	// than the balance slack could never be refined under the strict
	// bound, so each level's cap is relaxed by its heaviest vertex.
	// Finer levels have lighter vertices, so the bound tightens as the
	// partition is projected back.
	capsFor := func(hh *hypergraph.Hypergraph) [2]float64 {
		mw := 0
		for v := 0; v < hh.NumVertices(); v++ {
			if w := hh.VertexWeight(v); w > mw {
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

	coarseCaps := capsFor(coarsest.h)
	if sc.enabled() {
		t0 = time.Now()
	}
	isp := ctx.tk.Begin("hgpart", "initial.bisect").
		Arg("vertices", int64(coarsest.h.NumVertices())).Arg("trials", initTrials)
	side, err := initialBisect(ctx, coarsest.h, coarsest.fixedSide, targets, maxW, coarseCaps, opts, r, scr)
	isp.End()
	if err != nil {
		return nil, err
	}
	var initialD time.Duration
	if sc.enabled() {
		initialD = time.Since(t0)
		t0 = time.Now()
	}
	refineBisection(ctx, coarsest.h, side, coarsest.fixedSide, maxW, coarseCaps, opts, r, scr)

	// Project back through the levels, refining at each. The two
	// scr.proj buffers ping-pong: initialBisect returned proj[0], so the
	// first projection writes proj[1], the next proj[0], and so on.
	fineCaps := coarseCaps
	cur := 0
	for i := len(levels) - 2; i >= 0; i-- {
		if err := opts.canceled(); err != nil {
			return nil, err
		}
		lv := levels[i]
		cur = 1 - cur
		scr.proj[cur] = grow(scr.proj[cur], lv.h.NumVertices())
		fine := scr.proj[cur]
		for v := range fine {
			fine[v] = side[lv.cmap[v]]
		}
		side = fine
		fineCaps = capsFor(lv.h)
		refineBisection(ctx, lv.h, side, lv.fixedSide, maxW, fineCaps, opts, r, scr)
	}
	if sc.enabled() {
		sc.addBisection(coarsenD, initialD, time.Since(t0))
	}

	// Final feasibility check against the finest-level caps (strict
	// ε-balance when vertex weights allow it).
	var w [2]float64
	for v, s := range side {
		w[s] += float64(h.VertexWeight(v))
	}
	if w[0] > fineCaps[0]+1e-9 || w[1] > fineCaps[1]+1e-9 {
		return nil, ErrInfeasible
	}
	return side, nil
}
