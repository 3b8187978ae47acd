package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// TestBestFeasibleSkipsBlockedBucket reproduces the search defect where a
// cluster of infeasibly heavy vertices in the top gain bucket aborted the
// whole search: with the per-bucket probe cap the search must fall
// through to a lower-gain bucket holding a feasible light vertex.
func TestBestFeasibleSkipsBlockedBucket(t *testing.T) {
	const heavy = 70 // more heavy vertices than the per-bucket cap
	b := hypergraph.NewBuilder(heavy+1, 1)
	for v := 0; v < heavy; v++ {
		b.SetVertexWeight(v, 100)
	}
	b.SetVertexWeight(heavy, 1)
	b.AddPin(0, 0)
	b.AddPin(0, 1)
	h := b.Build()

	bk := newGainBuckets(heavy+1, 8)
	for v := 0; v < heavy; v++ {
		bk.insert(v, 0, 5) // top bucket: all too heavy to move
	}
	bk.insert(heavy, 0, 4) // next bucket: fits

	// Other side has room for weight 50 only: every heavy vertex is
	// infeasible, the light one is not.
	v, g, ok := bk.bestFeasible(h, 0, 0, 50, 64, 256)
	if !ok || v != heavy || g != 4 {
		t.Fatalf("bestFeasible = (%d,%d,%v), want (%d,4,true)", v, g, ok, heavy)
	}

	// The total budget still bounds the search: with a budget smaller
	// than the blocked bucket's cap, the search gives up.
	if _, _, ok := bk.bestFeasible(h, 0, 0, 50, 64, 8); ok {
		t.Fatal("bestFeasible should exhaust a tiny total budget")
	}
}

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
	rebalance(nil, h, side, fixedSide, sigma, &w, maxW, getScratch())

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
	rebalance(nil, h, side, fixedSide, sigma, &w, [2]float64{n / 2, n / 2}, getScratch())
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
		rebalance(nil, h, side, fixedSide, sigma, &w, maxW, getScratch())
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
	refineBisection(bisectCtx{}, h, side, fixedSide, caps, caps, opts, r, getScratch())
	if cut := bisectionCut(h, side); cut > n/8 {
		t.Fatalf("refinement left cut %d on a chain of %d", cut, n)
	}
}
