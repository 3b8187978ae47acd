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
// Determinism contract: a scratch never carries semantic state between
// uses. Every buffer is either fully (re)initialized by its consumer
// before reads, or guarded by a monotonically increasing epoch stamp so
// stale entries can never compare equal to the current epoch. The
// partition produced is therefore byte-identical no matter which
// scratch — fresh or recycled — a goroutine happens to receive.
package hgpart

import "finegrain/internal/mlpart"

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

	// FM refinement: gain buckets, σ pin counts, move log.
	buckets mlpart.Buckets
	sigma   [2][]int
	locked  []bool
	moves   []fmMove

	// initial bisection and projection: trial buffer, the two
	// ping-pong side buffers (best-so-far / projected), and greedy
	// hypergraph growing's per-net σ₁ and offered flags and its frontier
	// with exact per-vertex gains.
	sideTrial []int8
	proj      [2][]int8
	sigmaGrow []int
	offered   []bool
	inFront   []bool
	frontier  []int
	gain      []int
	free      []int

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
