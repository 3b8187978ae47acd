package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// rebalanceState builds the σ counts and side weights refineBisection
// would hand to rebalance.
func rebalanceState(h *hypergraph.Hypergraph, side []int8) ([2][]int, [2]float64) {
	sigma := [2][]int{make([]int, h.NumNets()), make([]int, h.NumNets())}
	var w [2]float64
	for v := 0; v < h.NumVertices(); v++ {
		s := side[v]
		w[s] += float64(h.VertexWeight(v))
		for _, n := range h.Nets(v) {
			sigma[s][n]++
		}
	}
	return sigma, w
}

// TestRebalanceInvariants moves an entirely one-sided chain to balance
// and checks weights, σ counts, and the cap are all consistent after.
func TestRebalanceInvariants(t *testing.T) {
	const n = 64
	h := chain(n)
	side := make([]int8, n) // everything on side 0
	fixedSide := make([]int8, n)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	fixedSide[0] = 0 // one anchored vertex for good measure

	sigma, w := rebalanceState(h, side)
	maxW := [2]float64{n / 2, n / 2}
	rebalance(nil, h, side, fixedSide, sigma, &w, maxW, new(scratch))

	if w[0] > maxW[0]+1e-9 {
		t.Fatalf("side 0 still overweight: %v > %v", w[0], maxW[0])
	}
	if side[0] != 0 {
		t.Fatal("fixed vertex moved")
	}
	wantSigma, wantW := rebalanceState(h, side)
	if w != wantW {
		t.Fatalf("tracked weights %v != recomputed %v", w, wantW)
	}
	for s := 0; s < 2; s++ {
		for nt := range sigma[s] {
			if sigma[s][nt] != wantSigma[s][nt] {
				t.Fatalf("sigma[%d][%d] = %d, want %d", s, nt, sigma[s][nt], wantSigma[s][nt])
			}
		}
	}
}

// TestRebalanceMatchesCutQuality checks rebalance still produces a cut no
// worse than moving a contiguous suffix of the chain (the optimal greedy
// result is cut 1 for a chain).
func TestRebalanceCutOnChain(t *testing.T) {
	const n = 32
	h := chain(n)
	side := make([]int8, n)
	fixedSide := make([]int8, n)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	sigma, w := rebalanceState(h, side)
	rebalance(nil, h, side, fixedSide, sigma, &w, [2]float64{n / 2, n / 2}, new(scratch))
	if cut := bisectionCut(h, side); cut > n/4 {
		t.Fatalf("rebalance produced a poor cut %d on a chain", cut)
	}
}

// BenchmarkRebalanceWorstCase starts with every vertex of a long chain on
// one side, forcing ~n/2 rebalance moves. The previous implementation
// rescanned all vertices per move (O(V²) total); the bucket-based one is
// O(moves × degree).
func BenchmarkRebalanceWorstCase(b *testing.B) {
	const n = 20000
	h := chain(n)
	fixedSide := make([]int8, n)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	maxW := [2]float64{n/2 + 1, n/2 + 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		side := make([]int8, n)
		sigma, w := rebalanceState(h, side)
		b.StartTimer()
		rebalance(nil, h, side, fixedSide, sigma, &w, maxW, new(scratch))
	}
}

// TestRefineBisectionStillImproves is a smoke test that the reworked
// refinement pipeline (bucket rebalance + capped bestFeasible) still
// drives a random bisection of a chain toward a small cut.
func TestRefineBisectionStillImproves(t *testing.T) {
	const n = 128
	h := chain(n)
	fixedSide := make([]int8, n)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	r := rng.New(7)
	side := make([]int8, n)
	for i := range side {
		side[i] = int8(r.Intn(2))
	}
	opts := DefaultOptions()
	opts.normalize()
	caps := [2]float64{n/2 + 2, n/2 + 2}
	refineBisection(bisectCtx{}, h, side, fixedSide, caps, caps, opts, r, new(scratch))
	if cut := bisectionCut(h, side); cut > n/8 {
		t.Fatalf("refinement left cut %d on a chain of %d", cut, n)
	}
}
