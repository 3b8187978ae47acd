package hgpart

import (
	"slices"

	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// fmMove records one applied FM move so the pass can roll back to the
// best prefix.
type fmMove struct {
	v    int
	gain int
}

// refineBisection improves a bisection in place with repeated FM passes.
// Fixed vertices never move. Balance: the pass first tries to reach the
// strict ε-based caps (rebalancing greedily if the projected input
// exceeds them); FM then enforces the strict caps when the state is
// within them and the relaxed (vertex-granularity) caps otherwise, so
// coarse levels with heavy clusters still refine while fine levels are
// pulled back to the strict bound.
//
// Levels of at least opts.parallelThreshold vertices refine on the
// parallel round path (fmParallelRefine); smaller ones run the serial
// gain-bucket passes. Like the coarsening dispatch, the choice depends
// only on the level size and the options, so partitions stay identical
// at every worker count.
func refineBisection(ctx bisectCtx, h *hypergraph.Hypergraph, side []int8, fixedSide []int8,
	strict, relaxed [2]float64, opts Options, r *rng.RNG, s *scratch) {

	sc := ctx.sc
	numV := h.NumVertices()
	if numV == 0 || h.NumNets() == 0 {
		return
	}
	rsp := ctx.tk.Begin("hgpart", "refine").Arg("vertices", int64(numV))
	defer rsp.End()
	// σ(n, s): pins of net n currently on side s.
	s.sigma[0] = mlpart.Grow(s.sigma[0], h.NumNets())
	s.sigma[1] = mlpart.Grow(s.sigma[1], h.NumNets())
	sigma := s.sigma
	clear(sigma[0])
	clear(sigma[1])
	var w [2]float64
	for v := 0; v < numV; v++ {
		s := side[v]
		w[s] += float64(h.VertexWeight(v))
		for _, n := range h.Nets(v) {
			sigma[s][n]++
		}
	}
	maxBound := 1
	for v := 0; v < numV; v++ {
		sum := 0
		for _, n := range h.Nets(v) {
			sum += h.NetCost(n)
		}
		if sum > maxBound {
			maxBound = sum
		}
	}

	rebalance(sc, h, side, fixedSide, sigma, &w, strict, s)
	caps := strict
	if !mlpart.Within(w, strict) {
		caps = relaxed
	}
	if numV >= opts.parallelThreshold {
		fmParallelRefine(ctx, h, side, fixedSide, sigma, &w, caps, opts, s)
	} else {
		for pass := 0; pass < mlpart.FMPasses; pass++ {
			if opts.Canceled() != nil {
				// Abandon refinement mid-search; the caller's next boundary
				// check surfaces the context error.
				return
			}
			psp := ctx.tk.Begin("hgpart", "fm.pass").Arg("pass", int64(pass))
			improved := fmPass(sc, h, side, fixedSide, sigma, &w, caps, maxBound, opts, r, s)
			psp.End()
			if !improved {
				break
			}
		}
	}
	if caps != strict {
		// One more chance to reach the strict bound now that the cut
		// is settled.
		rebalance(sc, h, side, fixedSide, sigma, &w, strict, s)
	}
}

// fmParallelRefine refines a large level in deterministic rounds: phase
// A scans fixed vertex chunks concurrently for positive-gain moves
// against the side/σ snapshot, phase B applies them serially in sorted
// (gain desc, vertex asc) order, recomputing each gain against the live
// state and accepting only still-positive, still-feasible moves. Every
// accepted move strictly decreases the cut, so no move log or rollback
// is needed and the loop terminates; rounds stop when one applies
// nothing (or after 4×mlpart.FMPasses rounds, a generous bound that keeps
// worst-case time proportional to the serial pass budget). Unlike the
// serial pass it consumes no randomness — the scan order is the vertex
// order.
func fmParallelRefine(ctx bisectCtx, h *hypergraph.Hypergraph, side []int8, fixedSide []int8,
	sigma [2][]int, w *[2]float64, caps [2]float64, opts Options, s *scratch) {

	numV := h.NumVertices()
	chunk := opts.parallelChunk()
	nchunks := chunkCount(numV, chunk)
	s.fmCands = mlpart.Grow(s.fmCands, numV)
	s.fmCounts = mlpart.Grow(s.fmCounts, nchunks)

	fr := &s.fm
	*fr = fmRound{
		h:         h,
		side:      side,
		fixedSide: fixedSide,
		sigma:     sigma,
		cands:     s.fmCands,
		counts:    s.fmCounts,
		chunk:     chunk,
		numV:      numV,
	}
	rj := &s.rj
	*rj = roundJob{nchunks: nchunks, op: roundFM, fm: fr}

	maxRounds := 4 * mlpart.FMPasses
	for round := 0; round < maxRounds; round++ {
		if opts.Canceled() != nil {
			return
		}
		psp := ctx.tk.Begin("hgpart", "fm.round").Arg("round", int64(round))
		runRound(ctx.call, s, rj)

		merged := s.fmMerged[:0]
		for c := 0; c < nchunks; c++ {
			base := c * chunk
			merged = append(merged, fr.cands[base:base+int(fr.counts[c])]...)
		}
		slices.SortFunc(merged, func(a, b fmCand) int {
			if a.gain != b.gain {
				if a.gain > b.gain {
					return -1
				}
				return 1
			}
			return a.v - b.v
		})
		moves := 0
		for _, cand := range merged {
			v := cand.v
			from := int(side[v])
			to := 1 - from
			if moveGain(h, sigma, from, v) <= 0 {
				continue // a neighbor's earlier move consumed this gain
			}
			wv := float64(h.VertexWeight(v))
			if w[to]+wv > caps[to]+1e-9 {
				continue
			}
			side[v] = int8(to)
			w[from] -= wv
			w[to] += wv
			for _, n := range h.Nets(v) {
				sigma[from][n]--
				sigma[to][n]++
			}
			moves++
		}
		s.fmMerged = merged
		psp.Arg("moves", int64(moves)).End()
		ctx.sc.addFMRound(moves)
		if moves == 0 {
			break
		}
	}
}

// rebalance restores feasibility when a projected partition exceeds a
// side's cap (possible when coarse clusters were heavier than the
// slack): it greedily moves the best-gain movable vertices off the
// overloaded side. Selection goes through a gain-bucket structure with
// incremental updates, so a rebalance costs O(moves × degree) rather
// than the O(moves × V) of a naive rescan per move. No-op when the
// input is already feasible.
func rebalance(sc *statsCollector, h *hypergraph.Hypergraph, side []int8, fixedSide []int8,
	sigma [2][]int, w *[2]float64, maxW [2]float64, scr *scratch) {

	numV := h.NumVertices()
	vw := h.VertexWeights()
	moved := 0
	for s := 0; s < 2; s++ {
		if w[s] <= maxW[s]+1e-9 {
			continue
		}
		o := 1 - s

		maxBound := 1
		for v := 0; v < numV; v++ {
			if int(side[v]) != s {
				continue
			}
			sum := 0
			for _, n := range h.Nets(v) {
				sum += h.NetCost(n)
			}
			if sum > maxBound {
				maxBound = sum
			}
		}
		buckets := &scr.buckets
		buckets.Ensure(numV, maxBound)
		for v := 0; v < numV; v++ {
			if int(side[v]) != s || fixedSide[v] >= 0 {
				continue
			}
			buckets.Insert(v, int8(s), moveGain(h, sigma, s, v))
		}

		// Repeatedly pick the best-gain movable vertex on side s whose
		// weight fits on the other side. The bucket holds every movable
		// s-side vertex, so an exhaustive probe budget makes this the
		// same greedy choice as a full scan.
		for w[s] > maxW[s]+1e-9 {
			v, _, ok := buckets.BestFeasible(vw, s, w[o], maxW[o], numV, numV)
			if !ok {
				break // nothing movable fits; give up quietly
			}
			buckets.Remove(v)
			side[v] = int8(o)
			w[s] -= float64(h.VertexWeight(v))
			w[o] += float64(h.VertexWeight(v))
			moved++
			// Update gains of the remaining s-side bucket members. Only
			// two of the four σ transitions touch s-side pins; the other
			// vertices affected are on side o and were never inserted
			// (Update is a no-op for them).
			for _, n := range h.Nets(v) {
				c := h.NetCost(n)
				if sigma[o][n] == 0 {
					// Net n was entirely on side s; every remaining pin
					// loses its "newly cuts" penalty.
					for _, u := range h.Pins(n) {
						if u != v {
							buckets.Update(u, +c)
						}
					}
				}
				sigma[s][n]--
				sigma[o][n]++
				if sigma[s][n] == 1 {
					// One s-side pin left; moving it now uncuts net n.
					for _, u := range h.Pins(n) {
						if u != v && int(side[u]) == s {
							buckets.Update(u, +c)
						}
					}
				}
			}
		}
	}
	if moved > 0 {
		sc.addRebalance(moved)
	}
}

func fmPass(sc *statsCollector, h *hypergraph.Hypergraph, side []int8, fixedSide []int8,
	sigma [2][]int, w *[2]float64, maxW [2]float64, maxBound int,
	opts Options, r *rng.RNG, scr *scratch) bool {

	numV := h.NumVertices()
	vw := h.VertexWeights()
	buckets := &scr.buckets
	buckets.Ensure(numV, maxBound)
	scr.locked = mlpart.Grow(scr.locked, numV)
	locked := scr.locked
	clear(locked)

	scr.perm = mlpart.Grow(scr.perm, numV)
	order := scr.perm
	r.PermInto(order)
	for _, v := range order {
		if fixedSide[v] >= 0 {
			locked[v] = true
			continue
		}
		buckets.Insert(v, side[v], moveGain(h, sigma, int(side[v]), v))
	}

	moves := scr.moves[:0]
	delta, best, bestIdx := 0, 0, -1
	sinceBest := 0

	applyGainUpdates := func(v int, from, to int) {
		for _, n := range h.Nets(v) {
			c := h.NetCost(n)
			pins := h.Pins(n)
			switch sigma[to][n] {
			case 0:
				for _, u := range pins {
					if u != v && !locked[u] {
						buckets.Update(u, +c)
					}
				}
			case 1:
				for _, u := range pins {
					if int(side[u]) == to && !locked[u] {
						buckets.Update(u, -c)
						break
					}
				}
			}
			sigma[from][n]--
			sigma[to][n]++
			switch sigma[from][n] {
			case 0:
				for _, u := range pins {
					if u != v && !locked[u] {
						buckets.Update(u, -c)
					}
				}
			case 1:
				for _, u := range pins {
					if int(side[u]) == from && !locked[u] {
						buckets.Update(u, +c)
						break
					}
				}
			}
		}
	}

	for buckets.Len() > 0 {
		v0, g0, ok0 := buckets.BestFeasible(vw, 0, w[1], maxW[1], 64, 256)
		v1, g1, ok1 := buckets.BestFeasible(vw, 1, w[0], maxW[0], 64, 256)
		var v, g, from int
		switch {
		case ok0 && (!ok1 || g0 > g1 || (g0 == g1 && w[0] >= w[1])):
			v, g, from = v0, g0, 0
		case ok1:
			v, g, from = v1, g1, 1
		default:
			// Neither side has a feasible move.
			v = -1
		}
		if v < 0 {
			break
		}
		to := 1 - from
		buckets.Remove(v)
		locked[v] = true
		side[v] = int8(to)
		w[from] -= float64(h.VertexWeight(v))
		w[to] += float64(h.VertexWeight(v))
		applyGainUpdates(v, from, to)
		delta += g
		moves = append(moves, fmMove{v: v, gain: g})
		if delta > best {
			best = delta
			bestIdx = len(moves) - 1
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest > mlpart.MaxNegMoves {
				break
			}
		}
	}

	sc.addFMPass(len(moves), len(moves)-1-bestIdx)
	// Roll back to the best prefix (all of it if no improvement).
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		to := int(side[v])
		from := 1 - to
		side[v] = int8(from)
		w[to] -= float64(h.VertexWeight(v))
		w[from] += float64(h.VertexWeight(v))
		for _, n := range h.Nets(v) {
			sigma[to][n]--
			sigma[from][n]++
		}
	}
	scr.moves = moves
	return best > 0
}

// moveGain is the FM gain of moving v from side from to the other
// side: the sum of mlpart.NetGain over v's nets, given the pin counts
// sigma before the move.
func moveGain(h *hypergraph.Hypergraph, sigma [2][]int, from, v int) int {
	g := 0
	for _, n := range h.Nets(v) {
		g += mlpart.NetGain(h.NetCost(n), sigma[from][n], sigma[1-from][n])
	}
	return g
}
