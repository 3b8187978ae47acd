// Package hgpart implements a multilevel hypergraph partitioner in the
// style of PaToH (Çatalyürek & Aykanat), the tool the paper used for both
// the 1D column-net model and the proposed 2D fine-grain model.
//
// The partitioner follows the classic three-phase multilevel scheme:
//
//  1. Coarsening: the hypergraph is shrunk level by level by clustering
//     vertices that share nets (agglomerative heavy-connectivity
//     clustering, PaToH's HCC), until it is small enough to partition
//     directly. Single-pin and identical nets are pruned between levels.
//  2. Initial partitioning: the coarsest hypergraph is bisected by
//     several trials of greedy hypergraph growing and random balanced
//     assignment; the best feasible bisection wins.
//  3. Uncoarsening: the bisection is projected back level by level and
//     improved at each level with Fiduccia–Mattheyses boundary
//     refinement using gain buckets.
//
// K-way partitions are produced by recursive bisection with proportional
// target weights (supporting any K ≥ 1, not just powers of two) and
// net splitting, which is the correct decomposition of the
// connectivity−1 metric across recursion levels. Fixed vertices (the
// paper's pre-assigned reduction inputs/outputs) are honored throughout.
package hgpart

import (
	"context"
	"math"
	"runtime"

	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// Options configures the partitioner. DefaultOptions gives the
// configuration every caller runs; the remaining settings of the
// algorithm are the package constants below.
type Options struct {
	// Seed drives every random choice; identical seeds give identical
	// partitions.
	Seed uint64
	// Eps is the allowed final imbalance ε in the balance criterion
	// W_k ≤ W_avg(1+ε). The paper reports imbalance below 3%, so the
	// default is 0.03.
	Eps float64
	// Workers bounds the number of goroutines partitioning concurrently
	// (recursive-bisection branches and in-bisection round chunks).
	// 0 means runtime.GOMAXPROCS(0). The partition produced is bitwise
	// identical for every Workers value given the same Seed.
	Workers int
	// CollectStats enables the per-phase Stats record returned by
	// PartitionFixedStats. Collection is cheap (a mutex-guarded counter
	// update per phase) but off by default to keep hot paths clean.
	CollectStats bool
	// Trace, when non-nil, records phase spans (the run, each bisection,
	// coarsening level and FM pass) onto the given trace for Chrome
	// trace-event export. Tracing never consumes randomness or alters a
	// partitioning decision, so traced and untraced runs are bitwise
	// identical; when nil (the default) every span call is a free no-op
	// and the hot path stays allocation-free.
	Trace *obs.Trace
	// Ctx, when non-nil, lets the caller abandon a partition mid-search:
	// the partitioner polls it at phase boundaries (each bisection, each
	// coarsening level, each FM pass) and returns the context's error.
	// Cancellation never consumes randomness, so a run that is not
	// canceled is bitwise identical whether or not a context was set.
	Ctx context.Context

	// Overrides of the level-size constants, zero meaning the default.
	// Only in-package tests set them, to reach the parallel round path
	// and the coarsening stall checks on small fixtures.
	//
	// coarsenTo stops coarsening when the vertex count drops to this
	// value (default defaultCoarsenTo). matchNetLimit skips larger nets
	// during connectivity scoring (default defaultMatchNetLimit).
	// parallelThreshold is the level size at or above which coarsening
	// and FM refinement take the parallel round path (default
	// defaultParallelThreshold).
	coarsenTo         int
	matchNetLimit     int
	parallelThreshold int
}

// The fixed settings of the multilevel algorithm: the PaToH-style
// defaults every caller runs.
const (
	// defaultCoarsenTo is the vertex count at which coarsening stops.
	defaultCoarsenTo = 100
	// maxLevels bounds the number of coarsening levels.
	maxLevels = 40
	// defaultMatchNetLimit: nets with more pins carry little clustering
	// signal (dense matrix rows) and would dominate scoring time, so
	// connectivity scoring skips them.
	defaultMatchNetLimit = 100
	// initTrials is the number of initial-bisection attempts on the
	// coarsest hypergraph.
	initTrials = 8
	// fmPasses bounds FM refinement passes per level.
	fmPasses = 4
	// maxNegMoves ends an FM pass after this many consecutive
	// non-improving moves (hill-climb window).
	maxNegMoves = 100
	// defaultParallelThreshold is the level size (vertex count) at or
	// above which coarsening and FM refinement switch to the
	// deterministic parallel round path (chunked concurrent proposal
	// scoring, serial application in fixed order). Below it the serial
	// kernels run — small levels can't amortize round barriers. The
	// threshold affects which algorithm runs, never the
	// schedule-independence of its result.
	defaultParallelThreshold = 8192
	// coarsenRounds bounds the proposal/apply rounds per coarsening
	// level on the parallel path. Rounds after the first mop up
	// vertices whose proposals lost a conflict.
	coarsenRounds = 3
)

// canceled reports the context's error, if a context was set and it has
// fired. It is polled on hot-path phase boundaries, so it must stay a
// plain nil check plus ctx.Err().
func (o *Options) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// DefaultOptions returns the configuration used by the experiment
// harness: seed 1 and ε = 3% (the paper's reported bound).
func DefaultOptions() Options {
	return Options{Seed: 1, Eps: 0.03}
}

func (o *Options) normalize() {
	if o.Eps <= 0 {
		o.Eps = 0.03
	}
	if o.coarsenTo == 0 {
		o.coarsenTo = defaultCoarsenTo
	}
	if o.matchNetLimit == 0 {
		o.matchNetLimit = defaultMatchNetLimit
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.parallelThreshold == 0 {
		o.parallelThreshold = defaultParallelThreshold
	}
}

// parallelChunk is the vertex-chunk granularity of the round path,
// derived from the threshold so both scale together: the smallest
// parallel level splits into at least ~4 chunks. Chunk boundaries
// affect only scheduling grain — proposal scoring is a pure per-vertex
// function — so this never influences the partition.
func (o *Options) parallelChunk() int {
	c := o.parallelThreshold / 4
	if c < 16 {
		c = 16
	}
	return c
}

// bisectionEps converts a remaining imbalance budget ε (multiplicative
// slack 1+ε) into this bisection's ε′ such that compounding over the
// ⌈log2 k⌉ levels of the deepest recursion path below stays within the
// budget: (1+ε′)^depth = 1+ε. recursiveBisect re-derives ε′ at every
// node from the budget left after its ancestors spent theirs — for K a
// power of two every node sees the same depth and this reduces to the
// classic constant ε′, but uneven splits (K not a power of two) give
// shallow subtrees fewer levels and therefore a larger, easier ε′ per
// level, while every root-to-leaf product still telescopes to exactly
// the caller's 1+ε.
func bisectionEps(eps float64, k int) float64 {
	depth := 0
	for p := 1; p < k; p *= 2 {
		depth++
	}
	if depth <= 1 {
		return eps
	}
	return math.Pow(1+eps, 1/float64(depth)) - 1
}

// newRNG builds the run's root generator.
func (o *Options) newRNG() *rng.RNG {
	return rng.New(o.Seed + 0x9e3779b97f4a7c15)
}
