package gpart

import "finegrain/internal/mlpart"

// scratch holds the reusable working buffers of one goroutine of a
// Partition call: the caller's own, and one per worker slot. Buffers
// only grow, so deeper (smaller) levels and later passes reslice the
// capacity the first level left behind. A scratch never carries state
// from one use to the next: every buffer is initialised by its consumer
// before it is read, or guarded by the monotone epoch stamp, so the
// partition cannot depend on which scratch served a call.
type scratch struct {
	// perm is the r.PermInto target of heavyEdgeMatch and fmPass, and
	// the free-vertex buffer of the random initial fill.
	perm []int

	// contract: counting-sort bucket offsets (then the transpose's
	// next-free cursors) and members, the epoch-stamped neighbour
	// accumulator, and the coarse rows in first-seen order.
	start   []int
	members []int
	acc     []accSlot
	epoch   int
	rowTo   []int
	rowW    []int

	// ladder holds the storage of coarse levels 1, 2, ...: a ladder
	// lives only inside one multilevelBisect, so the next bisection on
	// this goroutine rewrites the same arrays.
	ladder []*rung

	// inducedSide: the old → new vertex map.
	local []int

	// FM refinement: move gains, gain buckets and the move log.
	gain    []int
	buckets mlpart.Buckets
	moves   []int

	// projection: two side buffers that the uncoarsening levels take
	// in turn, one read while the other is written.
	proj [2][]int8
}

// rung is the storage of one coarse level: its CSR arrays, and the cmap
// that maps the level above onto it.
type rung struct {
	cmap   []int
	adjPtr []int
	adjTo  []int
	adjW   []int
	vw     []int
}

// rungAt returns the storage of coarse level i ≥ 1.
func (s *scratch) rungAt(i int) *rung {
	for len(s.ladder) < i {
		s.ladder = append(s.ladder, new(rung))
	}
	return s.ladder[i-1]
}

// accSlot is one coarse neighbour's summed edge weight, valid only when
// stamp equals the current epoch.
type accSlot struct {
	stamp int
	w     int
}
