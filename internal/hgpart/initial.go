package hgpart

import (
	"math"

	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// initialBisect produces a starting 0/1 side assignment of the coarsest
// hypergraph. It runs mlpart.InitTrials attempts alternating between
// greedy hypergraph growing (GHG) and random balanced fill, refines each
// with FM, and returns the best feasible result by cut (ties broken by
// balance). An error is returned only if no attempt was feasible.
//
// The returned slice is scratch-owned (s.proj[0]); it stays valid until
// the caller's next projection or recursion step reuses the arena.
func initialBisect(ctx bisectCtx, h *hypergraph.Hypergraph, fixedSide []int8,
	targets, strict, relaxed [2]float64, opts Options, r *rng.RNG, s *scratch) ([]int8, error) {

	numV := h.NumVertices()
	s.proj[0] = mlpart.Grow(s.proj[0], numV)
	best := s.proj[0]
	s.sideTrial = mlpart.Grow(s.sideTrial, numV)
	side := s.sideTrial
	haveBest := false
	bestCut := -1
	bestDev := 0.0
	for trial := 0; trial < mlpart.InitTrials; trial++ {
		if trial%2 == 0 {
			growBisect(h, fixedSide, targets, r.Child(), side, s)
		} else {
			s.free = mlpart.RandomBisect(h.VertexWeights(), fixedSide, targets, r.Child(), side, s.free)
		}
		refineBisection(ctx, h, side, fixedSide, strict, relaxed, opts, r, s)
		w := mlpart.SideWeights(h.VertexWeights(), side)
		if !mlpart.Within(w, relaxed) {
			continue
		}
		cut := bisectionCut(h, side)
		dev := math.Abs(w[0] - targets[0])
		if !haveBest || cut < bestCut || (cut == bestCut && dev < bestDev) {
			copy(best, side)
			haveBest = true
			bestCut, bestDev = cut, dev
		}
	}
	if !haveBest {
		return nil, ErrInfeasible
	}
	if ctx.top {
		ctx.sc.setInitialCut(bestCut)
	}
	return best, nil
}

// bisectionCut returns the cut-net cost of a bisection, which for K = 2
// equals the connectivity−1 cutsize.
func bisectionCut(h *hypergraph.Hypergraph, side []int8) int {
	cut := 0
	for n := 0; n < h.NumNets(); n++ {
		pins := h.Pins(n)
		if len(pins) == 0 {
			continue
		}
		first := side[pins[0]]
		for _, v := range pins[1:] {
			if side[v] != first {
				cut += h.NetCost(n)
				break
			}
		}
	}
	return cut
}

// growBisect implements greedy hypergraph growing: everything starts on
// side 0; side 1 grows from a random seed by repeatedly absorbing the
// free vertex with the best move gain until side 1 reaches its target
// weight. Fixed vertices are pre-placed and never absorbed across sides.
// The result is written into side (len = NumVertices).
//
// Frontier gains are cached: absorbing a vertex only changes the gain of
// another free pin u of net n on the σ₁ transitions 0→1 (u's "newly
// cuts" penalty appears) and |n|−2→|n|−1 (u's "fully absorbs" bonus
// appears), so only those transitions mark pins dirty and everything
// else is served from the cache. The selected vertex is identical to a
// full rescan at every step, just cheaper.
func growBisect(h *hypergraph.Hypergraph, fixedSide []int8, targets [2]float64, r *rng.RNG,
	side []int8, s *scratch) {

	numV := h.NumVertices()
	clear(side)
	var w1 float64
	for v := 0; v < numV; v++ {
		if fixedSide[v] == 1 {
			side[v] = 1
			w1 += float64(h.VertexWeight(v))
		}
	}

	// σ(n, side1) pin counts let us score candidates by how much of
	// each net is already inside the growing part.
	s.sigmaGrow = mlpart.Grow(s.sigmaGrow, h.NumNets())
	sigma1 := s.sigmaGrow
	clear(sigma1)
	for v := 0; v < numV; v++ {
		if side[v] == 1 {
			for _, n := range h.Nets(v) {
				sigma1[n]++
			}
		}
	}

	s.inFront = mlpart.Grow(s.inFront, numV)
	inFront := s.inFront
	clear(inFront)
	s.gainCache = mlpart.Grow(s.gainCache, numV)
	gainCache := s.gainCache
	s.dirty = mlpart.Grow(s.dirty, numV)
	dirty := s.dirty
	// gainCache/dirty need no clearing: a vertex is only read after
	// addFrontier marked it dirty, which forces a recompute first.
	frontier := s.frontier[:0]
	addFrontier := func(v int) {
		if !inFront[v] && side[v] == 0 && fixedSide[v] != 0 {
			inFront[v] = true
			dirty[v] = true
			frontier = append(frontier, v)
		}
	}

	moveTo1 := func(v int) {
		side[v] = 1
		w1 += float64(h.VertexWeight(v))
		for _, n := range h.Nets(v) {
			old := sigma1[n]
			sigma1[n] = old + 1
			gainShift := old == 0 || old == h.NetSize(n)-2
			for _, u := range h.Pins(n) {
				if gainShift {
					dirty[u] = true
				}
				addFrontier(u)
			}
		}
	}

	// Seed: a random free vertex (if none was fixed to side 1 yet).
	if w1 == 0 {
		free := s.free[:0]
		for v := 0; v < numV; v++ {
			if fixedSide[v] != 0 {
				free = append(free, v)
			}
		}
		s.free = free
		if len(free) == 0 {
			s.frontier = frontier
			return
		}
		moveTo1(free[r.Intn(len(free))])
	} else {
		for v := 0; v < numV; v++ {
			if side[v] == 1 {
				for _, n := range h.Nets(v) {
					for _, u := range h.Pins(n) {
						addFrontier(u)
					}
				}
			}
		}
	}

	gainOf := func(v int) int {
		// FM gain of moving v from side 0 to side 1 given current
		// sides: nets fully absorbed gain their cost, nets newly cut
		// lose it.
		g := 0
		for _, n := range h.Nets(v) {
			size := h.NetSize(n)
			s1 := sigma1[n]
			if s1 == size-1 {
				g += h.NetCost(n)
			}
			if s1 == 0 {
				g -= h.NetCost(n)
			}
		}
		return g
	}

	for w1 < targets[1] {
		// Pick the best frontier vertex; fall back to any free vertex
		// if the frontier dried up (disconnected hypergraph).
		bestV, bestG := -1, 0
		compact := frontier[:0]
		for _, v := range frontier {
			if side[v] != 0 {
				inFront[v] = false
				continue
			}
			compact = append(compact, v)
			g := gainCache[v]
			if dirty[v] {
				g = gainOf(v)
				gainCache[v] = g
				dirty[v] = false
			}
			if bestV < 0 || g > bestG {
				bestV, bestG = v, g
			}
		}
		frontier = compact
		if bestV < 0 {
			for v := 0; v < numV; v++ {
				if side[v] == 0 && fixedSide[v] != 0 {
					bestV = v
					break
				}
			}
			if bestV < 0 {
				break
			}
		}
		moveTo1(bestV)
	}
	s.frontier = frontier
}
