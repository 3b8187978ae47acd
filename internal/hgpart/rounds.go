// Deterministic in-bisection parallelism: the synchronous-round engine
// shared by parallel coarsening (clusterRounds) and parallel FM
// refinement (fmParallelRefine).
//
// Levels at or above the parallel threshold (defaultParallelThreshold
// vertices) are processed in rounds with a strict two-phase shape,
// following the many-core rounds scheme of Fagginger Auer & Bisseling
// and mt-KaHyPar's deterministic mode:
//
//	phase A (parallel): the vertex range is cut into fixed-size chunks
//	  (grain derived from the threshold, never from Workers). Chunks
//	  are claimed from an atomic counter by the caller plus any slot
//	  helpers it recruited; each computes a pure per-vertex proposal
//	  against the state *snapshot from the end of the previous round*,
//	  writing into a position-keyed result slot. Claim order is racy,
//	  results are not: a chunk's output depends only on the snapshot
//	  and the chunk index.
//
//	phase B (serial): the caller applies proposals in one fixed order
//	  (the level's global permutation for clustering, sorted
//	  (gain, vertex) order for FM), re-validating each against the
//	  live state. Conflicts lose deterministically and retry next
//	  round.
//
// Because every cross-goroutine dependency runs through the
// phase-A/phase-B barrier and every tie breaks by a fixed order, never
// by timing, the coarse hypergraph and the refined bisection are
// independent of scheduling — the partition stays byte-identical at
// every worker count.
package hgpart

import (
	"sync/atomic"

	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/par"
)

// Round operation selector for roundJob.
const (
	roundCluster = iota
	roundFM
)

// roundJob is the control block of one phase-A fan-out: an atomic chunk
// cursor plus pointers to the operation state. It lives in the caller's
// scratch and runs as a par task on the barrier: shard 0 is the owner
// draining with its own scratch s, shard i > 0 is a helper holding
// worker-slot token tokens[i−1], which drains with that slot's arena
// and then returns the token.
type roundJob struct {
	g       par.Group
	next    atomic.Int64
	nchunks int
	op      int
	cl      *clusterRound
	fm      *fmRound
	call    *mlpart.Call[scratch, branch]
	s       *scratch
	tokens  []int
}

func (rj *roundJob) Run(shard int, _ *par.Worker) {
	if shard == 0 {
		rj.drain(rj.s)
		return
	}
	i := rj.tokens[shard-1]
	rj.drain(rj.call.Arena(i))
	rj.call.Release(i)
}

// drain claims and processes chunks until none remain.
func (rj *roundJob) drain(s *scratch) {
	for {
		i := int(rj.next.Add(1)) - 1
		if i >= rj.nchunks {
			return
		}
		switch rj.op {
		case roundCluster:
			rj.cl.scoreChunk(i, s)
		case roundFM:
			rj.fm.scanChunk(i, s)
		}
	}
}

// runRound executes rj's chunks across the caller plus up to nchunks−1
// helpers on free worker slots and returns when every chunk is done.
// With no free slot the caller simply drains everything inline — same
// results, serial schedule.
func runRound(c *mlpart.Call[scratch, branch], s *scratch, rj *roundJob) {
	rj.next.Store(0)
	rj.call, rj.s = c, s
	tokens := s.tokens[:0]
	for len(tokens)+1 < rj.nchunks {
		i, ok := c.TryAcquire()
		if !ok {
			break
		}
		tokens = append(tokens, i)
	}
	s.tokens, rj.tokens = tokens, tokens
	rj.g.Run(len(tokens)+1, rj)
}

// chunkCount returns the number of chunks covering n items at the given
// grain.
func chunkCount(n, chunk int) int {
	return (n + chunk - 1) / chunk
}

// clusterRound is the shared state of one parallel clustering round.
// During phase A everything here is read-only; prop is write-disjoint
// (chunk i owns the order positions [i·chunk, (i+1)·chunk)). Phase B
// (apply) mutates cmap/clusters/boundW serially.
type clusterRound struct {
	mergeRule
	netInc   []float64
	cmap     []int
	clusters []clusterMeta
	boundW   [2]float64
	order    []int // global visit permutation, drawn once per level
	prop     []int // prop[p]: proposed key for vertex order[p], −1 none
	chunk    int
}

// scoreChunk computes the proposal of every still-unmatched vertex in
// chunk i of the visit order: the same candidate enumeration and merge
// filter as the serial cluster kernel, evaluated against the previous
// round's snapshot. A snapshot check going stale is harmless — phase B
// re-validates against the live state, so it only costs the vertex a
// retry next round. Scoring state (epoch-stamped slots, candidate
// list) comes from the executing goroutine's own scratch.
func (cr *clusterRound) scoreChunk(i int, s *scratch) {
	lo := i * cr.chunk
	hi := lo + cr.chunk
	if hi > len(cr.order) {
		hi = len(cr.order)
	}
	h := cr.h
	s.slots = mlpart.Grow(s.slots, 2*cr.keyBase)
	slots := s.slots
	epoch := s.epoch
	cands := s.cands[:0]

	for p := lo; p < hi; p++ {
		v := cr.order[p]
		if cr.cmap[v] >= 0 {
			cr.prop[p] = -1
			continue
		}
		epoch++
		cands = scoreCandidates(h, cr.netInc, cr.cmap, cr.keyBase, v, slots, epoch, cands)
		wv, sv := h.VertexWeight(v), cr.fixedSide[v]
		best, bestScore := -1, 0.0
		for _, key := range cands {
			sc := slots[key].score
			if sc <= bestScore {
				continue
			}
			if _, _, ok := cr.check(key, wv, sv, cr.clusters, &cr.boundW); ok {
				best, bestScore = key, sc
			}
		}
		cr.prop[p] = best
	}
	s.epoch = epoch
	s.cands = cands
}

// fmRound is the shared state of one parallel FM proposal round: phase
// A scans disjoint vertex chunks for positive-gain moves against the
// side/σ snapshot; counts[i] is how many chunk i found, written into
// its own region of cands.
type fmRound struct {
	h         *hypergraph.Hypergraph
	side      []int8
	fixedSide []int8
	sigma     [2][]int
	cands     []fmCand
	counts    []int32
	chunk     int
	numV      int
}

// fmCand is one proposed FM move: vertex and its snapshot gain.
type fmCand struct {
	v    int
	gain int
}

// scanChunk finds every free positive-gain vertex in chunk i.
func (fr *fmRound) scanChunk(i int, _ *scratch) {
	lo := i * fr.chunk
	hi := lo + fr.chunk
	if hi > fr.numV {
		hi = fr.numV
	}
	h := fr.h
	n := 0
	for v := lo; v < hi; v++ {
		if fr.fixedSide[v] >= 0 {
			continue
		}
		s := int(fr.side[v])
		g := 0
		for _, net := range h.Nets(v) {
			c := h.NetCost(net)
			if fr.sigma[s][net] == 1 {
				g += c
			}
			if fr.sigma[1-s][net] == 0 {
				g -= c
			}
		}
		if g > 0 {
			fr.cands[lo+n] = fmCand{v: v, gain: g}
			n++
		}
	}
	fr.counts[i] = int32(n)
}
