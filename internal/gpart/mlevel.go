package gpart

import (
	"finegrain/internal/graph"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// level is one rung of the multilevel ladder.
type level struct {
	g    *graph.Graph
	cmap []int
}

// coarsen shrinks g with heavy-edge matching until it has at most
// coarsenTo vertices or shrinkage stalls.
func coarsen(g *graph.Graph, opts Options, r *rng.RNG, tk *obs.Track, s *scratch) []*level {
	levels := []*level{{g: g}}
	cur := levels[0]
	for len(levels) < maxLevels && cur.g.NumVertices() > coarsenTo {
		if opts.canceled() != nil {
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
func heavyEdgeMatch(g *graph.Graph, opts Options, r *rng.RNG, s *scratch, rg *rung) ([]int, int) {
	numV := g.NumVertices()
	cmap := grow(rg.cmap, numV)
	rg.cmap = cmap
	for i := range cmap {
		cmap[i] = -1
	}
	maxClusterW := g.TotalVertexWeight()/coarsenTo + 1
	if maxClusterW < 2 {
		maxClusterW = 2
	}
	numC := 0
	order := grow(s.perm, numV)
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
	start := grow(s.start, numC+1)
	clear(start)
	for _, c := range cmap {
		start[c+1]++
	}
	for c := 0; c < numC; c++ {
		start[c+1] += start[c]
	}
	// Placing member v advances start[c] to the end of bucket c; the
	// shift afterwards restores the bucket starts.
	members := grow(s.members, numV)
	for v, c := range cmap {
		members[start[c]] = v
		start[c]++
	}
	copy(start[1:], start[:numC])
	start[0] = 0

	acc := grow(s.acc, numC)
	adjPtr := grow(rg.adjPtr, numC+1)
	vw := grow(rg.vw, numC)
	// The coarse rows hold at most the fine adjacency's 2|E| entries.
	rowTo := grow(s.rowTo, 2*g.NumEdges())[:0]
	rowW := grow(s.rowW, 2*g.NumEdges())[:0]
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

	adjTo := grow(rg.adjTo, len(rowTo))
	adjW := grow(rg.adjW, len(rowTo))
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

// initialBisect tries greedy graph growing and random fills, refines
// each, and keeps the best feasible bisection by cut.
func initialBisect(g *graph.Graph, targets, strict, relaxed [2]float64, opts Options, r *rng.RNG, s *scratch) ([]int8, error) {
	var best []int8
	bestCut := -1
	bestDev := 0.0
	for trial := 0; trial < initTrials; trial++ {
		var side []int8
		if trial%2 == 0 {
			side = growBisect(g, targets, r.Child())
		} else {
			side = randomBisect(g, targets, r.Child())
		}
		refineBisection(g, side, strict, relaxed, opts, r, s)
		var w [2]float64
		for v, sd := range side {
			w[sd] += float64(g.VertexWeight(v))
		}
		if w[0] > relaxed[0]+1e-9 || w[1] > relaxed[1]+1e-9 {
			continue
		}
		cut := bisectionCut(g, side)
		dev := w[0] - targets[0]
		if dev < 0 {
			dev = -dev
		}
		if best == nil || cut < bestCut || (cut == bestCut && dev < bestDev) {
			best = append(best[:0:0], side...)
			bestCut, bestDev = cut, dev
		}
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}

func bisectionCut(g *graph.Graph, side []int8) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		to, w := g.Adj(v)
		for i, u := range to {
			if u > v && side[u] != side[v] {
				cut += w[i]
			}
		}
	}
	return cut
}

// growBisect grows side 1 from a random seed by best-gain BFS until it
// reaches its target weight (greedy graph growing, GGP).
func growBisect(g *graph.Graph, targets [2]float64, r *rng.RNG) []int8 {
	numV := g.NumVertices()
	side := make([]int8, numV)
	var w1 float64
	// gainTo1[v]: Σ weight of edges from v into side 1 minus into side 0.
	gain := make([]int, numV)
	for v := 0; v < numV; v++ {
		_, ws := g.Adj(v)
		for _, x := range ws {
			gain[v] -= x
		}
	}
	inFront := make([]bool, numV)
	var frontier []int
	move := func(v int) {
		side[v] = 1
		w1 += float64(g.VertexWeight(v))
		to, ws := g.Adj(v)
		for i, u := range to {
			gain[u] += 2 * ws[i]
			if side[u] == 0 && !inFront[u] {
				inFront[u] = true
				frontier = append(frontier, u)
			}
		}
	}
	move(r.Intn(numV))
	for w1 < targets[1] {
		bestV, bestG := -1, 0
		compact := frontier[:0]
		for _, v := range frontier {
			if side[v] != 0 {
				inFront[v] = false
				continue
			}
			compact = append(compact, v)
			if bestV < 0 || gain[v] > bestG {
				bestV, bestG = v, gain[v]
			}
		}
		frontier = compact
		if bestV < 0 {
			for v := 0; v < numV; v++ {
				if side[v] == 0 {
					bestV = v
					break
				}
			}
			if bestV < 0 {
				break
			}
		}
		move(bestV)
	}
	return side
}

func randomBisect(g *graph.Graph, targets [2]float64, r *rng.RNG) []int8 {
	numV := g.NumVertices()
	side := make([]int8, numV)
	var w0 float64
	order := r.Perm(numV)
	for _, v := range order {
		if w0 < targets[0] {
			side[v] = 0
			w0 += float64(g.VertexWeight(v))
		} else {
			side[v] = 1
		}
	}
	return side
}

// ---- FM refinement on edge cut ----

type gainBuckets struct {
	off   int
	heads [2][]int
	next  []int
	prev  []int
	gain  []int
	sideA []int8
	in    []bool
	maxG  [2]int
	count [2]int
}

// reset empties the buckets for a pass over numV vertices with gains in
// [−maxBound, maxBound], reusing the arrays of earlier passes.
func (b *gainBuckets) reset(numV, maxBound int) {
	b.off = maxBound
	b.next = grow(b.next, numV)
	b.prev = grow(b.prev, numV)
	b.gain = grow(b.gain, numV)
	b.sideA = grow(b.sideA, numV)
	b.in = grow(b.in, numV)
	clear(b.in)
	for s := 0; s < 2; s++ {
		b.heads[s] = grow(b.heads[s], 2*maxBound+1)
		for i := range b.heads[s] {
			b.heads[s][i] = -1
		}
		b.maxG[s] = -maxBound - 1
		b.count[s] = 0
	}
}

func (b *gainBuckets) insert(v int, side int8, gain int) {
	idx := gain + b.off
	s := int(side)
	b.gain[v] = gain
	b.sideA[v] = side
	b.in[v] = true
	head := b.heads[s][idx]
	b.next[v] = head
	b.prev[v] = -1
	if head >= 0 {
		b.prev[head] = v
	}
	b.heads[s][idx] = v
	if gain > b.maxG[s] {
		b.maxG[s] = gain
	}
	b.count[s]++
}

func (b *gainBuckets) remove(v int) {
	if !b.in[v] {
		return
	}
	s := int(b.sideA[v])
	idx := b.gain[v] + b.off
	if b.prev[v] >= 0 {
		b.next[b.prev[v]] = b.next[v]
	} else {
		b.heads[s][idx] = b.next[v]
	}
	if b.next[v] >= 0 {
		b.prev[b.next[v]] = b.prev[v]
	}
	b.in[v] = false
	b.count[s]--
}

// update re-files v, if it is still bucketed, under its new gain.
func (b *gainBuckets) update(v, gain int) {
	if !b.in[v] {
		return
	}
	side := b.sideA[v]
	b.remove(v)
	b.insert(v, side, gain)
}

func (b *gainBuckets) bestFeasible(g *graph.Graph, s int, wOther, maxOther float64, probeCap int) (int, int, bool) {
	if b.count[s] == 0 {
		return -1, 0, false
	}
	probes := 0
	for gn := b.maxG[s]; gn >= -b.off; gn-- {
		v := b.heads[s][gn+b.off]
		if v < 0 {
			if gn == b.maxG[s] {
				b.maxG[s] = gn - 1
			}
			continue
		}
		for v >= 0 {
			if wOther+float64(g.VertexWeight(v)) <= maxOther+1e-9 {
				return v, gn, true
			}
			probes++
			if probes >= probeCap {
				return -1, 0, false
			}
			v = b.next[v]
		}
	}
	return -1, 0, false
}

// refineBisection improves a graph bisection in place with FM passes,
// rebalancing toward the strict caps first and refining under the
// relaxed caps only when the level's vertex granularity requires it.
func refineBisection(g *graph.Graph, side []int8, strict, relaxed [2]float64, opts Options, r *rng.RNG, s *scratch) {
	numV := g.NumVertices()
	if numV == 0 {
		return
	}
	var w [2]float64
	for v, sd := range side {
		w[sd] += float64(g.VertexWeight(v))
	}
	rebalance(g, side, &w, strict)
	caps := strict
	if w[0] > strict[0]+1e-9 || w[1] > strict[1]+1e-9 {
		caps = relaxed
	}
	// gain[v] is the cut reduction of moving v. It is computed once
	// here; fmPass keeps it exact through every move and rollback, so
	// each pass starts from the values a fresh computation would give.
	gain := grow(s.gain, numV)
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
	for pass := 0; pass < fmPasses; pass++ {
		if opts.canceled() != nil {
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
	buckets := &s.buckets
	buckets.reset(numV, maxBound)
	locked := grow(s.locked, numV)
	clear(locked)
	s.locked = locked

	order := grow(s.perm, numV)
	r.PermInto(order)
	s.perm = order
	for _, v := range order {
		buckets.insert(v, side[v], gain[v])
	}

	moves := s.moves[:0]
	delta, best, bestIdx := 0, 0, -1
	sinceBest := 0

	for buckets.count[0]+buckets.count[1] > 0 {
		v0, g0, ok0 := buckets.bestFeasible(g, 0, w[1], maxW[1], 64)
		v1, g1, ok1 := buckets.bestFeasible(g, 1, w[0], maxW[0], 64)
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
		buckets.remove(v)
		locked[v] = true
		flip(g, side, gain, v)
		w[from] -= float64(g.VertexWeight(v))
		w[to] += float64(g.VertexWeight(v))
		adjTo, _ := g.Adj(v)
		for _, u := range adjTo {
			if !locked[u] {
				buckets.update(u, gain[u])
			}
		}
		delta += gn
		moves = append(moves, v)
		if delta > best {
			best, bestIdx = delta, len(moves)-1
			sinceBest = 0
		} else {
			sinceBest++
			if sinceBest > maxNegMoves {
				break
			}
		}
	}

	s.moves = moves
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i]
		to := int(side[v])
		from := 1 - to
		flip(g, side, gain, v)
		w[to] -= float64(g.VertexWeight(v))
		w[from] += float64(g.VertexWeight(v))
	}
	return best > 0
}

// flip moves v to the other side and keeps gain exact: v's gain changes
// sign, and each neighbour's moves by twice the edge weight, up when
// the edge is now cut and down when it is now internal.
func flip(g *graph.Graph, side []int8, gain []int, v int) {
	side[v] = 1 - side[v]
	gain[v] = -gain[v]
	to, w := g.Adj(v)
	for i, u := range to {
		if side[u] == side[v] {
			gain[u] -= 2 * w[i]
		} else {
			gain[u] += 2 * w[i]
		}
	}
}
