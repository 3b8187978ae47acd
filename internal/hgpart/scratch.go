// Per-goroutine scratch arenas for the multilevel hot path.
//
// Every phase of a multilevel bisection — clustering, contraction, FM
// refinement, initial partitioning, projection — needs the same family
// of working buffers (permutations, pin-count arrays, gain buckets,
// epoch-stamped score tables) sized to the current level. Allocating
// them per level and per pass dominated the partitioner's allocation
// profile (millions of objects per K=64 partition), so they live here
// instead: one scratch struct per goroutine of a call — the caller's
// and one per worker slot, all from the recursion scheduler's free list
// (sched in hgpart.go) — reused across levels, FM passes, recursion
// depths and calls. Buffers only ever grow; deeper (smaller) levels
// reslice the top-level capacity.
//
// The hypergraphs hgpart builds for itself live here too, so a warm
// arena builds them without allocating:
//
//   - Ladder rungs. Rung i holds level i of the current bisection's
//     coarsening ladder: its hypergraph (written by contract), fixed
//     sides and cmap. A level is valid until the next bisection on the
//     same arena rewrites its rung, which is why a child never reads
//     its parent's rungs.
//   - Children. Child (d, side) holds the sub-hypergraph and id map
//     inducedSide builds for one side of a depth d−1 bisection, and the
//     ladder maps inheritLadder derives for that side from the
//     bisection's rungs. A child is valid until the Fork that runs it
//     returns: a sibling spawned onto another slot reads it while the
//     building goroutine is blocked in Fork, and nothing that goroutine
//     runs meanwhile writes depth d on this arena. The child's own
//     ladder points into its inherited maps while it bisects.
//
// Arenas are held strongly between calls, so a parked arena keeps the
// largest ladder and children it has built; a finished bisection drops
// its pointers to the input hypergraph, which may be the caller's.
//
// Determinism contract: a scratch never carries semantic state between
// uses. Every buffer is either fully (re)initialized by its consumer
// before reads, or guarded by a monotonically increasing epoch stamp so
// stale entries can never compare equal to the current epoch. The
// partition produced is therefore byte-identical no matter which
// scratch — fresh or recycled — a goroutine happens to receive.
package hgpart

import (
	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
)

// scratch holds the reusable working buffers of one partitioner
// goroutine. Fields are grouped by their owning phase; buffers in
// different groups may alias lifetimes freely because the phases run
// strictly sequentially on one goroutine.
type scratch struct {
	// perm is the shared r.PermInto target used by cluster,
	// clusterRounds and fmPass (never live in two phases at once).
	perm []int

	// cluster: per-candidate score accumulators, epoch-stamped so no
	// per-level reset is needed, plus the per-net connectivity
	// increments precomputed once per level. Stamp and score live in one
	// interleaved slot per key (and weight/side in one slot per cluster)
	// so the hot scoring loop touches a single cache line per access.
	slots    []candSlot
	clusters []clusterMeta
	epoch    int
	cands    []int
	netInc   []float64

	// contract: coarse-net assembly (flat pin storage + offsets) and the
	// open-addressed identical-net table.
	mark   []int
	cpins  []int
	cxpins []int
	ccost  []int
	ckeep  []int
	htab   []int

	// inducedSide: global→local vertex map and surviving-net list.
	vlocal []int
	keep   []int

	// inheritLadder: the parent vertex of each child vertex of the
	// current and next level (taken in turn), and the parent→child id
	// map of the next level.
	inhFrom [2][]int
	inhID   []int

	// ladder: rung i backs level i of the current bisection's coarsening
	// ladder, and levels is the ladder coarsen returns. Rung 0's
	// hypergraph is the bisection's input, held only for the bisection.
	ladder []*rung
	levels []*level

	// children: the sub-hypergraphs and id maps inducedSide builds,
	// child (d, side) at index 2·(d−1) + side.
	children []*child

	// FM refinement: gain buckets, σ pin counts, move log.
	buckets mlpart.Buckets
	sigma   [2][]int
	locked  []bool
	moves   []fmMove

	// initial bisection (mlpart's trial sides and greedy growing
	// buffers) and projection: the two ping-pong side buffers the
	// uncoarsening levels take in turn.
	grow mlpart.GrowScratch
	proj [2][]int8

	// parallel rounds (coarsen/FM on levels ≥ the parallel threshold): the
	// round-job control block helpers drain from and the shared
	// per-round state. rj/cl/fm are referenced by helper goroutines for
	// the duration of one round only; the buffers below back cl/fm's
	// slices and the helpers' slot tokens between rounds.
	rj       roundJob
	cl       clusterRound
	fm       fmRound
	prop     []int
	fmCands  []fmCand
	fmCounts []int32
	fmMerged []fmCand
	tokens   []int
}

// candSlot is one epoch-stamped score accumulator of cluster's candidate
// scan; keeping stamp and score adjacent means the scan's random accesses
// cost one cache miss instead of two.
type candSlot struct {
	stamp int
	score float64
}

// clusterMeta is the running weight and fixed side of one forming
// cluster, interleaved for the same reason.
type clusterMeta struct {
	w    int
	side int8
}

// arenaHG is a hypergraph held in an arena: the value and the four
// compact arrays it owns. Each rebuild rewrites all of them, reusing
// their capacity.
type arenaHG struct {
	hg                    hypergraph.Hypergraph
	vw, cost, xpins, pins []int
}

// freeze rebuilds a.hg over a's arrays and returns it.
func (a *arenaHG) freeze() *hypergraph.Hypergraph {
	a.hg.Reset(a.vw, a.cost, a.xpins, a.pins)
	return &a.hg
}

// rung is the storage of one ladder level: its level record, the cmap
// onto the next level and the level's fixed sides, and (above level 0)
// its hypergraph, which contract writes.
type rung struct {
	arenaHG
	lv        level
	cmap      []int
	fixedSide []int8
}

// child is the storage of one side of a bisection: the sub-hypergraph,
// its map to input vertex ids, and the ladder it inherits.
type child struct {
	arenaHG
	ids []int
	inh inherited
}

// inherited is the part of a parent bisection's coarsening ladder that
// a child takes in place of clustering (inheritLadder): cmap[ℓ] maps
// the child's level-ℓ vertices onto its numC[ℓ] level-(ℓ+1) vertices.
type inherited struct {
	cmap [][]int
	numC []int
}

// rungAt returns the storage of ladder level i.
func (s *scratch) rungAt(i int) *rung {
	for len(s.ladder) <= i {
		s.ladder = append(s.ladder, new(rung))
	}
	return s.ladder[i]
}

// childAt returns the storage of side `side` of the bisections at
// recursion depth d ≥ 1.
func (s *scratch) childAt(d int, side int8) *child {
	i := 2*(d-1) + int(side)
	for len(s.children) <= i {
		s.children = append(s.children, new(child))
	}
	return s.children[i]
}

// dropInput clears the pointers a finished bisection leaves to its
// input hypergraph, which may be the caller's: a parked arena must not
// pin it.
func (s *scratch) dropInput() {
	s.rungAt(0).lv.h = nil
	s.cl.h, s.fm.h = nil, nil
}
