package mlpart

import (
	"math"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// GrowScratch holds the reusable buffers of InitialBisect and
// GrowBisect: the best and trial sides, greedy growing's per-net σ₁
// counts and offered flags, its frontier with exact per-vertex gains,
// and the free-vertex buffer of the random fills. Buffers only grow;
// each call initializes what it reads.
type GrowScratch struct {
	best, trial []int8
	sigma1      []int
	offered     []bool
	inFront     []bool
	frontier    []int
	gain        []int
	free        []int
	examined    int
}

// Examined returns the number of candidates the last GrowBisect call on
// s examined: frontier entries scanned plus fallback cursor steps.
func (s *GrowScratch) Examined() int { return s.examined }

// InitialBisect produces a starting 0/1 side assignment of the coarsest
// level h, vertex v fixed to side fixedSide[v] ≥ 0. It runs InitTrials
// attempts alternating between greedy hypergraph growing (GrowBisect)
// and a random balanced fill (RandomBisect), improves each with the
// caller's refine, and keeps the result of least BisectionCut whose
// side weights are within relaxed; ties go to the side 0 weight nearer
// targets[0]. On nets of two pins this is greedy graph growing on the
// edge cut, so the graph partitioner runs it on the hypergraph of its
// edges.
//
// It returns the best side and its cut. The side is s's storage, valid
// until the next InitialBisect on s; it is nil when no attempt was
// feasible. An error is returned only if opts' context is canceled
// while a greedy trial grows.
func InitialBisect(h *hypergraph.Hypergraph, fixedSide []int8, targets, relaxed [2]float64,
	opts *Options, r *rng.RNG, s *GrowScratch, refine func(side []int8)) ([]int8, int, error) {

	numV := h.NumVertices()
	s.best = Grow(s.best, numV)
	s.trial = Grow(s.trial, numV)
	side := s.trial
	haveBest := false
	bestCut := -1
	bestDev := 0.0
	for trial := 0; trial < InitTrials; trial++ {
		if trial%2 == 0 {
			if err := GrowBisect(h, fixedSide, targets, r.Child(), side, opts, s); err != nil {
				return nil, 0, err
			}
		} else {
			s.free = RandomBisect(h.VertexWeights(), fixedSide, targets, r.Child(), side, s.free)
		}
		refine(side)
		w := SideWeights(h.VertexWeights(), side)
		if !Within(w, relaxed) {
			continue
		}
		cut := BisectionCut(h, side)
		dev := math.Abs(w[0] - targets[0])
		if !haveBest || cut < bestCut || (cut == bestCut && dev < bestDev) {
			copy(s.best, side)
			haveBest = true
			bestCut, bestDev = cut, dev
		}
	}
	if !haveBest {
		return nil, 0, nil
	}
	return s.best, bestCut, nil
}

// BisectionCut returns the cut-net cost of a bisection, which for K = 2
// equals the connectivity−1 cutsize, and on 2-pin nets the edge cut.
func BisectionCut(h *hypergraph.Hypergraph, side []int8) int {
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

// NetGain is a net's term in the FM gain of moving one of its pins to
// the other side, given the net's cost c and its pin counts on the
// source (from) and target (to) side before the move. The move uncuts
// the net, or keeps it internal to the target, when the pin is the last
// on the source side, and newly cuts it when the target side has none.
func NetGain(c, from, to int) int {
	g := 0
	if from == 1 {
		g += c
	}
	if to == 0 {
		g -= c
	}
	return g
}

// GrowBisect implements greedy hypergraph growing (GHG). Everything
// starts on side 0 except the vertices fixed to side 1, which seed side
// 1 if they carry weight; otherwise a random free vertex does. Side 1
// then absorbs free side-0 vertices until its weight reaches
// targets[1]. Candidates are the frontier, the free side-0 pins of nets
// side 1 touches, in the order they became candidates; the first of
// maximal gain wins, and an empty frontier (a disconnected hypergraph)
// falls back to the lowest-index free side-0 vertex, which a cursor
// finds in one sweep over the whole call: side 1 only grows, so that
// vertex's index never decreases. The result is written into side
// (len = NumVertices).
//
// Frontier gains are exact at every step and kept by integer deltas: a
// vertex's gain is computed in full when it joins the frontier, and a
// step of σ₁(n) from old to old+1 adds the change in n's NetGain term,
// c_n·[old = 0] + c_n·[old = |n|−2] (2·c_n for a 2-pin net), to each
// free side-0 pin of n. A net's pins are walked when side 1 first
// touches it, to offer them to the frontier, and after that only on a
// step with a nonzero delta, about twice per trial.
//
// Growing polls opts' context every growPollMoves moves and returns its
// error: a level whose coarsening stalled can have as many vertices as
// the input, and growing it is not bounded by any other phase's poll.
// Polling draws no random numbers, so a live context leaves the result
// unchanged.
func GrowBisect(h *hypergraph.Hypergraph, fixedSide []int8, targets [2]float64, r *rng.RNG,
	side []int8, opts *Options, s *GrowScratch) error {

	numV, numN := h.NumVertices(), h.NumNets()
	s.examined = 0
	// σ(n, side1) pin counts let us score candidates by how much of
	// each net is already inside the growing part.
	s.sigma1 = Grow(s.sigma1, numN)
	sigma1 := s.sigma1
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
	s.offered = Grow(s.offered, numN)
	offered := s.offered
	clear(offered)

	s.inFront = Grow(s.inFront, numV)
	inFront := s.inFront
	clear(inFront)
	// gain needs no clearing: a vertex's entry is written when it joins
	// the frontier, before any read.
	s.gain = Grow(s.gain, numV)
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
				g += NetGain(h.NetCost(m), h.NetSize(m)-sigma1[m], sigma1[m])
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
			if d := NetGain(c, size-old-1, old+1) - NetGain(c, size-old, old); d != 0 || !offered[n] {
				offer(n, d)
			}
		}
	}

	// Seed: a random free vertex (if none was fixed to side 1 yet).
	if w1 == 0 {
		free := s.free[:0]
		for v := 0; v < numV; v++ {
			if fixedSide[v] < 0 {
				free = append(free, v)
			}
		}
		s.free = free
		if len(free) == 0 {
			return nil // frontier is still s.frontier[:0]
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

	cursor := 0
	for moves := 1; w1 < targets[1]; moves++ {
		if moves%growPollMoves == 0 {
			if err := opts.Canceled(); err != nil {
				s.frontier = frontier
				return err
			}
		}
		// Pick the best frontier vertex; fall back to the lowest-index
		// free vertex if the frontier dried up (disconnected hypergraph).
		s.examined += len(frontier)
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
			start := cursor
			for cursor < numV && (side[cursor] != 0 || fixedSide[cursor] == 0) {
				cursor++
			}
			s.examined += cursor - start + 1
			if cursor == numV {
				break
			}
			bestV = cursor
		}
		moveTo1(bestV)
	}
	s.frontier = frontier
	return nil
}

// growPollMoves is the number of GrowBisect moves between context polls.
const growPollMoves = 1024
