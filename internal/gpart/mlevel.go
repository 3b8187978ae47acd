package gpart

import (
	"finegrain/internal/graph"
	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// level is one rung of the multilevel ladder.
type level struct {
	g    *graph.Graph
	cmap []int
}

// coarsen shrinks g with heavy-edge matching until it has at most
// mlpart.CoarsenTo vertices or shrinkage stalls.
func coarsen(g *graph.Graph, opts mlpart.Options, r *rng.RNG, tk *obs.Track, s *scratch) []*level {
	levels := []*level{{g: g}}
	cur := levels[0]
	for len(levels) < mlpart.MaxLevels && cur.g.NumVertices() > mlpart.CoarsenTo {
		if opts.Canceled() != nil {
			// Stop building the ladder; the caller polls the context right
			// after coarsening and surfaces the error.
			break
		}
		lsp := tk.Begin("gpart", "coarsen.level").
			Arg("level", int64(len(levels))).Arg("vertices", int64(cur.g.NumVertices()))
		rg := s.rungAt(len(levels))
		cmap, numC := heavyEdgeMatch(cur.g, opts, r, s, rg)
		if numC >= cur.g.NumVertices()*9/10 {
			lsp.End()
			break
		}
		cur.cmap = cmap
		coarseG := contract(cur.g, cmap, numC, s, rg)
		next := &level{g: coarseG}
		levels = append(levels, next)
		cur = next
		lsp.Arg("coarseVertices", int64(numC)).End()
	}
	return levels
}

// heavyEdgeMatch pairs each unmatched vertex with its unmatched neighbor
// of maximal edge weight, subject to a cluster-weight cap. The cmap it
// returns is stored in rg.
func heavyEdgeMatch(g *graph.Graph, opts mlpart.Options, r *rng.RNG, s *scratch, rg *rung) ([]int, int) {
	numV := g.NumVertices()
	cmap := mlpart.Grow(rg.cmap, numV)
	rg.cmap = cmap
	for i := range cmap {
		cmap[i] = -1
	}
	maxClusterW := g.TotalVertexWeight()/mlpart.CoarsenTo + 1
	if maxClusterW < 2 {
		maxClusterW = 2
	}
	numC := 0
	order := mlpart.Grow(s.perm, numV)
	r.PermInto(order)
	s.perm = order
	for _, v := range order {
		if cmap[v] >= 0 {
			continue
		}
		to, w := g.Adj(v)
		bestU, bestW := -1, -1
		for i, u := range to {
			if cmap[u] >= 0 {
				continue
			}
			if g.VertexWeight(v)+g.VertexWeight(u) > maxClusterW {
				continue
			}
			if w[i] > bestW {
				bestU, bestW = u, w[i]
			}
		}
		if bestU >= 0 {
			cmap[v] = numC
			cmap[bestU] = numC
		} else {
			cmap[v] = numC
		}
		numC++
	}
	return cmap, numC
}

// contract builds the coarse graph induced by cmap into rg's arrays,
// merging parallel edges and dropping intra-cluster edges. It writes
// the CSR directly, in the canonical form graph.Builder emits. The fine
// vertices are bucketed by cluster with a counting sort, and each
// cluster's distinct neighbours are collected with an epoch-stamped
// accumulator. Presence is tracked by stamp, so an edge whose weights
// sum to 0 survives as it does in Build.
//
// The neighbours come out in first-seen order. A counting-sort
// transpose puts every list in neighbour order without sorting: the
// graph is symmetric, so cluster c belongs in row u exactly when u is
// in row c, with the same weight, and walking c upwards fills each row
// in increasing order.
func contract(g *graph.Graph, cmap []int, numC int, s *scratch, rg *rung) *graph.Graph {
	numV := g.NumVertices()
	start := mlpart.Grow(s.start, numC+1)
	clear(start)
	for _, c := range cmap {
		start[c+1]++
	}
	for c := 0; c < numC; c++ {
		start[c+1] += start[c]
	}
	// Placing member v advances start[c] to the end of bucket c; the
	// shift afterwards restores the bucket starts.
	members := mlpart.Grow(s.members, numV)
	for v, c := range cmap {
		members[start[c]] = v
		start[c]++
	}
	copy(start[1:], start[:numC])
	start[0] = 0

	acc := mlpart.Grow(s.acc, numC)
	adjPtr := mlpart.Grow(rg.adjPtr, numC+1)
	vw := mlpart.Grow(rg.vw, numC)
	// The coarse rows hold at most the fine adjacency's 2|E| entries.
	rowTo := mlpart.Grow(s.rowTo, 2*g.NumEdges())[:0]
	rowW := mlpart.Grow(s.rowW, 2*g.NumEdges())[:0]
	adjPtr[0] = 0
	for c := 0; c < numC; c++ {
		s.epoch++
		ep := s.epoch
		first := len(rowTo)
		vw[c] = 0
		for _, v := range members[start[c]:start[c+1]] {
			vw[c] += g.VertexWeight(v)
			to, w := g.Adj(v)
			for i, u := range to {
				cu := cmap[u]
				if cu == c {
					continue
				}
				if a := &acc[cu]; a.stamp != ep {
					*a = accSlot{stamp: ep, w: w[i]}
					rowTo = append(rowTo, cu)
				} else {
					a.w += w[i]
				}
			}
		}
		for _, cu := range rowTo[first:] {
			rowW = append(rowW, acc[cu].w)
		}
		adjPtr[c+1] = len(rowTo)
	}

	adjTo := mlpart.Grow(rg.adjTo, len(rowTo))
	adjW := mlpart.Grow(rg.adjW, len(rowTo))
	next := start[:numC]
	copy(next, adjPtr[:numC])
	for c := 0; c < numC; c++ {
		for j := adjPtr[c]; j < adjPtr[c+1]; j++ {
			u := rowTo[j]
			adjTo[next[u]], adjW[next[u]] = c, rowW[j]
			next[u]++
		}
	}
	s.start, s.members, s.acc, s.rowTo, s.rowW = start, members, acc, rowTo, rowW
	rg.adjPtr, rg.adjTo, rg.adjW, rg.vw = adjPtr, adjTo, adjW, vw
	return graph.FromCSR(adjPtr, adjTo, adjW, vw)
}

// initialBisect bisects the coarsest level g by mlpart.InitialBisect on
// the hypergraph of g's edges (edgeHypergraph), where greedy hypergraph
// growing is greedy graph growing and the cut-net cost is the edge cut.
// Each trial is refined with FM on g, and the best feasible bisection by
// cut is kept. The returned slice is scratch-owned (s.grow's), valid
// until the next initial bisection on s.
func initialBisect(g *graph.Graph, targets, strict, relaxed [2]float64, opts mlpart.Options, r *rng.RNG, s *scratch) ([]int8, error) {
	h := edgeHypergraph(g, s)
	best, _, err := mlpart.InitialBisect(h, s.fixedSide, targets, relaxed, &opts, r, &s.grow,
		func(side []int8) { refineBisection(g, side, strict, relaxed, opts, r, s) })
	// Drop h's pointer to g's vertex weights, which may be the caller's:
	// a parked arena must not pin them. The arrays keep their capacity.
	s.edges.Reset(nil, nil, s.xpins[:1], nil)
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}

// edgeHypergraph writes g into s as a hypergraph: g's vertices with
// their weights, and one 2-pin net {u, v} per edge u < v, costing the
// edge weight, numbered in adjacency order. s.fixedSide is left
// holding −1 (free) for every vertex.
func edgeHypergraph(g *graph.Graph, s *scratch) *hypergraph.Hypergraph {
	numV, numE := g.NumVertices(), g.NumEdges()
	xpins := mlpart.Grow(s.xpins, numE+1)
	pins := mlpart.Grow(s.pins, 2*numE)
	cost := mlpart.Grow(s.cost, numE)
	n := 0
	for v := 0; v < numV; v++ {
		to, w := g.Adj(v)
		for i, u := range to {
			if u > v {
				xpins[n] = 2 * n
				pins[2*n], pins[2*n+1] = v, u
				cost[n] = w[i]
				n++
			}
		}
	}
	xpins[numE] = 2 * numE
	s.fixedSide = mlpart.Grow(s.fixedSide, numV)
	for v := range s.fixedSide {
		s.fixedSide[v] = -1
	}
	s.xpins, s.pins, s.cost = xpins, pins, cost
	s.edges.Reset(g.VertexWeights(), cost, xpins, pins)
	return &s.edges
}

// ---- FM refinement on edge cut ----

// refineBisection improves a graph bisection in place with FM passes,
// rebalancing toward the strict caps first and refining under the
// relaxed caps only when the level's vertex granularity requires it.
func refineBisection(g *graph.Graph, side []int8, strict, relaxed [2]float64, opts mlpart.Options, r *rng.RNG, s *scratch) {
	numV := g.NumVertices()
	if numV == 0 {
		return
	}
	w := mlpart.SideWeights(g.VertexWeights(), side)
	rebalance(g, side, &w, strict)
	caps := strict
	if !mlpart.Within(w, strict) {
		caps = relaxed
	}
	// gain[v] is the cut reduction of moving v. It is computed once
	// here; fmPass keeps it exact through every move and rollback, so
	// each pass starts from the values a fresh computation would give.
	gain := mlpart.Grow(s.gain, numV)
	s.gain = gain
	maxBound := 1
	for v := 0; v < numV; v++ {
		gn, sum := 0, 0
		to, ws := g.Adj(v)
		for i, u := range to {
			sum += ws[i]
			if side[u] == side[v] {
				gn -= ws[i]
			} else {
				gn += ws[i]
			}
		}
		gain[v] = gn
		maxBound = max(maxBound, sum)
	}
	for pass := 0; pass < mlpart.FMPasses; pass++ {
		if opts.Canceled() != nil {
			// Abandon refinement mid-search; the caller's next boundary
			// check surfaces the context error.
			return
		}
		if !fmPass(g, side, gain, &w, caps, maxBound, r, s) {
			break
		}
	}
	if caps != strict {
		rebalance(g, side, &w, strict)
	}
}

// rebalance restores feasibility when a projected partition exceeds a
// side's cap, moving the cheapest-loss vertices off the overloaded
// side. No-op when already feasible.
func rebalance(g *graph.Graph, side []int8, w *[2]float64, maxW [2]float64) {
	for s := 0; s < 2; s++ {
		if w[s] <= maxW[s]+1e-9 {
			continue
		}
		o := 1 - s
		for w[s] > maxW[s]+1e-9 {
			bestV, bestG := -1, 0
			for v := 0; v < g.NumVertices(); v++ {
				if int(side[v]) != s {
					continue
				}
				if w[o]+float64(g.VertexWeight(v)) > maxW[o]+1e-9 {
					continue
				}
				gn := 0
				to, ws := g.Adj(v)
				for i, u := range to {
					if side[u] == side[v] {
						gn -= ws[i]
					} else {
						gn += ws[i]
					}
				}
				if bestV < 0 || gn > bestG {
					bestV, bestG = v, gn
				}
			}
			if bestV < 0 {
				return
			}
			side[bestV] = int8(o)
			w[s] -= float64(g.VertexWeight(bestV))
			w[o] += float64(g.VertexWeight(bestV))
		}
	}
}

// fmPass runs one FM pass and rolls back to its best prefix. gain must
// hold every vertex's move gain under side; the pass leaves it so.
func fmPass(g *graph.Graph, side []int8, gain []int, w *[2]float64, maxW [2]float64,
	maxBound int, r *rng.RNG, s *scratch) bool {

	numV := g.NumVertices()
	vw := g.VertexWeights()
	buckets := &s.buckets
	buckets.Ensure(numV, maxBound)

	order := mlpart.Grow(s.perm, numV)
	r.PermInto(order)
	s.perm = order
	for _, v := range order {
		buckets.Insert(v, side[v], gain[v])
	}

	moves := s.moves[:0]
	delta, best, bestIdx := 0, 0, -1
	sinceBest := 0

	for buckets.Len() > 0 {
		v0, g0, ok0 := buckets.BestFeasible(vw, 0, w[1], maxW[1], 64, 64)
		v1, g1, ok1 := buckets.BestFeasible(vw, 1, w[0], maxW[0], 64, 64)
		var v, gn, from int
		switch {
		case ok0 && (!ok1 || g0 > g1 || (g0 == g1 && w[0] >= w[1])):
			v, gn, from = v0, g0, 0
		case ok1:
			v, gn, from = v1, g1, 1
		default:
			v = -1
		}
		if v < 0 {
			break
		}
		to := 1 - from
		buckets.Remove(v)
		flip(g, side, gain, v, buckets)
		w[from] -= float64(vw[v])
		w[to] += float64(vw[v])
		delta += gn
		moves = append(moves, v)
		if delta > best {
			best, bestIdx = delta, len(moves)-1
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest > mlpart.MaxNegMoves {
				break
			}
		}
	}

	s.moves = moves
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i]
		to := int(side[v])
		from := 1 - to
		flip(g, side, gain, v, nil)
		w[to] -= float64(vw[v])
		w[from] += float64(vw[v])
	}
	return best > 0
}

// flip moves v to the other side and keeps gain exact: v's gain changes
// sign, and each neighbour's moves by twice the edge weight, up when
// the edge is now cut and down when it is now internal. A non-nil b
// gets the same change for every neighbour it still holds; moved
// vertices have left b, so they stay locked for the rest of the pass.
func flip(g *graph.Graph, side []int8, gain []int, v int, b *mlpart.Buckets) {
	side[v] = 1 - side[v]
	gain[v] = -gain[v]
	to, w := g.Adj(v)
	for i, u := range to {
		d := 2 * w[i]
		if side[u] == side[v] {
			d = -d
		}
		gain[u] += d
		if b != nil {
			b.Update(u, d)
		}
	}
}
