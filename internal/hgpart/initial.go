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

// growBisect implements greedy hypergraph growing (GHG). Everything
// starts on side 0 except the vertices fixed to side 1, which seed side
// 1 if they carry weight; otherwise a random vertex not fixed to side 0
// does. Side 1 then absorbs free side-0 vertices until its weight
// reaches targets[1]. Candidates are the frontier, the free side-0 pins
// of nets side 1 touches, in the order they became candidates; the
// first of maximal gain wins, and an empty frontier (a disconnected
// hypergraph) falls back to the lowest-index free side-0 vertex. The
// result is written into side (len = NumVertices).
//
// Frontier gains are exact at every step and kept by integer deltas: a
// vertex's gain is computed in full when it joins the frontier, and a
// step of σ₁(n) from old to old+1 adds the change in n's netGain term,
// c_n·[old = 0] + c_n·[old = |n|−2] (2·c_n for a 2-pin net), to each
// free side-0 pin of n. (It is −c_n at old = |n|−1, which needs σ₁ to
// count a vertex twice: a random seed that is a zero-weight vertex
// already fixed to side 1 is moved again.) A net's pins are walked when
// side 1 first touches it, to offer them to the frontier, and after
// that only on a step with a nonzero delta, about twice per trial.
func growBisect(h *hypergraph.Hypergraph, fixedSide []int8, targets [2]float64, r *rng.RNG,
	side []int8, s *scratch) {

	numV, numN := h.NumVertices(), h.NumNets()
	// σ(n, side1) pin counts let us score candidates by how much of
	// each net is already inside the growing part.
	s.sigmaGrow = mlpart.Grow(s.sigmaGrow, numN)
	sigma1 := s.sigmaGrow
	clear(sigma1)
	clear(side)
	var w1 float64
	for v := 0; v < numV; v++ {
		if fixedSide[v] == 1 {
			side[v] = 1
			w1 += float64(h.VertexWeight(v))
			for _, n := range h.Nets(v) {
				sigma1[n]++
			}
		}
	}
	// offered[n] records that every pin of n has been offered to the
	// frontier: each is in it, on side 1 or fixed to side 0 from then
	// on, so a later walk of n matters only for a nonzero delta.
	s.offered = mlpart.Grow(s.offered, numN)
	offered := s.offered
	clear(offered)

	s.inFront = mlpart.Grow(s.inFront, numV)
	inFront := s.inFront
	clear(inFront)
	// gain needs no clearing: a vertex's entry is written when it joins
	// the frontier, before any read.
	s.gain = mlpart.Grow(s.gain, numV)
	gain := s.gain
	frontier := s.frontier[:0]

	// offer walks the pins of net n: a free side-0 pin already in the
	// frontier gains delta, any other joins it with its full gain.
	offer := func(n, delta int) {
		for _, u := range h.Pins(n) {
			if side[u] != 0 || fixedSide[u] == 0 {
				continue
			}
			if inFront[u] {
				gain[u] += delta
				continue
			}
			inFront[u] = true
			frontier = append(frontier, u)
			g := 0
			for _, m := range h.Nets(u) {
				g += netGain(h.NetCost(m), h.NetSize(m)-sigma1[m], sigma1[m])
			}
			gain[u] = g
		}
		offered[n] = true
	}

	moveTo1 := func(v int) {
		side[v] = 1
		w1 += float64(h.VertexWeight(v))
		for _, n := range h.Nets(v) {
			old := sigma1[n]
			sigma1[n] = old + 1
			c, size := h.NetCost(n), h.NetSize(n)
			if d := netGain(c, size-old-1, old+1) - netGain(c, size-old, old); d != 0 || !offered[n] {
				offer(n, d)
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
			return // frontier is still s.frontier[:0]
		}
		moveTo1(free[r.Intn(len(free))])
	} else {
		for v := 0; v < numV; v++ {
			if side[v] == 1 {
				for _, n := range h.Nets(v) {
					if !offered[n] {
						offer(n, 0)
					}
				}
			}
		}
	}

	for w1 < targets[1] {
		// Pick the best frontier vertex; fall back to any free vertex
		// if the frontier dried up (disconnected hypergraph).
		bestV, bestG := -1, 0
		compact := frontier[:0]
		for _, v := range frontier {
			if side[v] != 0 {
				continue // absorbed; offer skips it from now on
			}
			compact = append(compact, v)
			if bestV < 0 || gain[v] > bestG {
				bestV, bestG = v, gain[v]
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
