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
//     assignment, each FM-refined; the best feasible bisection wins.
//     The trials are internal/mlpart's InitialBisect, which the graph
//     partitioner runs too.
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
	"finegrain/internal/mlpart"
)

// Options configures the partitioner: the options core every
// multilevel partitioner shares, plus the switch for the per-phase
// Stats record. DefaultOptions gives the configuration every caller
// runs; the remaining settings of the algorithm are the mlpart and
// package constants.
type Options struct {
	mlpart.Options
	// CollectStats enables the per-phase Stats record returned by
	// PartitionFixedStats. Collection is cheap (a mutex-guarded counter
	// update per phase) but off by default to keep hot paths clean.
	CollectStats bool

	// Overrides of the level-size constants, zero meaning the default.
	// Only in-package tests set them, to reach the parallel round path
	// and the coarsening stall checks on small fixtures.
	//
	// coarsenTo stops coarsening when the vertex count drops to this
	// value (default mlpart.CoarsenTo). matchNetLimit skips larger nets
	// during connectivity scoring (default defaultMatchNetLimit).
	// parallelThreshold is the level size at or above which coarsening
	// and FM refinement take the parallel round path (default
	// defaultParallelThreshold).
	coarsenTo         int
	matchNetLimit     int
	parallelThreshold int
}

// The level-size settings of the hypergraph partitioner; the settings
// it shares with the graph partitioner are the mlpart constants.
const (
	// defaultMatchNetLimit: nets with more pins carry little clustering
	// signal (dense matrix rows) and would dominate scoring time, so
	// connectivity scoring skips them.
	defaultMatchNetLimit = 100
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

// DefaultOptions returns the configuration used by the experiment
// harness: seed 1 and ε = 3% (the paper's reported bound).
func DefaultOptions() Options {
	return Options{Options: mlpart.DefaultOptions()}
}

func (o *Options) normalize() {
	o.Options.Normalize()
	if o.coarsenTo == 0 {
		o.coarsenTo = mlpart.CoarsenTo
	}
	if o.matchNetLimit == 0 {
		o.matchNetLimit = defaultMatchNetLimit
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
