package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

func TestClusterLegality(t *testing.T) {
	r := rng.New(10)
	b := hypergraph.NewBuilder(400, 300)
	for n := 0; n < 300; n++ {
		for i := 0; i < 2+r.Intn(4); i++ {
			b.AddPin(n, r.Intn(400))
		}
	}
	h := b.Build()
	fixedSide := make([]int8, 400)
	for v := range fixedSide {
		fixedSide[v] = -1
	}
	fixedSide[1] = 0
	fixedSide[2] = 1
	fixedSide[3] = 0

	opts := DefaultOptions()
	opts.normalize()
	cmap, numC := cluster(h, fixedSide, [2]float64{1e18, 1e18}, opts, r, getScratch())

	// Every vertex mapped, cluster ids in range.
	for v, c := range cmap {
		if c < 0 || c >= numC {
			t.Fatalf("vertex %d cluster %d out of [0,%d)", v, c, numC)
		}
	}
	// Weight cap respected.
	maxClusterW := h.TotalVertexWeight()/opts.coarsenTo + 1
	if maxClusterW < 2 {
		maxClusterW = 2
	}
	cw := make([]int, numC)
	for v, c := range cmap {
		cw[c] += h.VertexWeight(v)
	}
	for c, w := range cw {
		if w > maxClusterW {
			t.Fatalf("cluster %d weight %d exceeds cap %d", c, w, maxClusterW)
		}
	}
	// Vertices fixed to different sides never share a cluster.
	sideOf := make(map[int]int8)
	for v, c := range cmap {
		if fixedSide[v] < 0 {
			continue
		}
		if prev, ok := sideOf[c]; ok && prev != fixedSide[v] {
			t.Fatalf("cluster %d mixes fixed sides", c)
		}
		sideOf[c] = fixedSide[v]
	}
	// Some actual shrinkage happened.
	if numC >= 400 {
		t.Fatal("no clustering occurred")
	}
}

func TestContractDropsSinglePinNets(t *testing.T) {
	b := hypergraph.NewBuilder(4, 2)
	b.AddPin(0, 0)
	b.AddPin(0, 1) // net 0 = {0,1}: collapses to single pin after merge
	b.AddPin(1, 0)
	b.AddPin(1, 2) // net 1 = {0,2}: survives
	h := b.Build()
	cmap := []int{0, 0, 1, 2} // merge 0 and 1
	coarse, _ := contract(h, cmap, 3, getScratch())
	if coarse.NumNets() != 1 {
		t.Fatalf("coarse nets %d, want 1 (single-pin net dropped)", coarse.NumNets())
	}
	if coarse.NumVertices() != 3 {
		t.Fatalf("coarse vertices %d", coarse.NumVertices())
	}
	// Weights summed.
	if coarse.VertexWeight(0) != 2 {
		t.Fatalf("merged weight %d, want 2", coarse.VertexWeight(0))
	}
}

func TestContractMergesIdenticalNets(t *testing.T) {
	b := hypergraph.NewBuilder(4, 3)
	// Nets 0 and 1 become identical after contraction; net 2 differs.
	b.AddPin(0, 0)
	b.AddPin(0, 2)
	b.AddPin(1, 1)
	b.AddPin(1, 2)
	b.AddPin(2, 2)
	b.AddPin(2, 3)
	b.SetNetCost(0, 2)
	b.SetNetCost(1, 3)
	h := b.Build()
	cmap := []int{0, 0, 1, 2} // 0,1 merge → nets 0,1 both = {0,1}
	coarse, _ := contract(h, cmap, 3, getScratch())
	if coarse.NumNets() != 2 {
		t.Fatalf("coarse nets %d, want 2 (identical nets merged)", coarse.NumNets())
	}
	// The merged net carries the summed cost 5.
	found := false
	for n := 0; n < coarse.NumNets(); n++ {
		if coarse.NetCost(n) == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("identical-net cost not summed")
	}
}

func TestCoarsenLadderShrinks(t *testing.T) {
	h := chain(2000)
	fixedSide := make([]int8, 2000)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	opts := DefaultOptions()
	opts.normalize()
	levels := coarsen(bisectCtx{}, h, fixedSide, [2]float64{1e18, 1e18}, opts, rng.New(1), getScratch())
	if len(levels) < 2 {
		t.Fatal("no coarsening happened on a 2000-vertex chain")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].h.NumVertices() >= levels[i-1].h.NumVertices() {
			t.Fatalf("level %d did not shrink", i)
		}
		if err := levels[i].h.Validate(); err != nil {
			t.Fatalf("level %d invalid: %v", i, err)
		}
	}
	coarsest := levels[len(levels)-1].h
	if coarsest.NumVertices() > 4*opts.coarsenTo {
		t.Fatalf("coarsest still has %d vertices", coarsest.NumVertices())
	}
	// Total weight is invariant across levels.
	for i := 1; i < len(levels); i++ {
		if levels[i].h.TotalVertexWeight() != h.TotalVertexWeight() {
			t.Fatalf("level %d lost weight", i)
		}
	}
}

// TestCoarsenStallsWhenPinsStopShrinking exercises the second ladder
// stall signal: a level that sheds plenty of vertices while keeping
// nearly every pin must end the ladder, because every later phase would
// pay full price per pin for almost no reduction in work.
//
// Construction: 100 vertex pairs {2i, 2i+1} joined by size-2 "pair"
// nets of cost 100, "cross" nets of cost 1 chaining the odd vertices,
// and 100 dense nets over the even vertices that exceed matchNetLimit
// (so they never steer matching) and dominate the pin count. HCC's
// score makes every vertex absorb its pair partner first, so level 1 is
// exact pair matching: the vertex count halves, every cross net
// survives between distinct pair-clusters, and the dense nets' pins
// survive contraction untouched (no cluster ever holds two even
// vertices — an even's only matchable net is its pair net, and the
// weight cap blocks multi-pair chains). Net result: ≥10% vertex
// shrinkage and <5% pin shrinkage, while the surviving cross nets would
// let the ladder keep halving — only the pin check can stop it here.
func TestCoarsenStallsWhenPinsStopShrinking(t *testing.T) {
	const pairs = 100
	numV := 2 * pairs
	numN := pairs + (pairs - 1) + pairs
	b := hypergraph.NewBuilder(numV, numN)
	net := 0
	for i := 0; i < pairs; i++ { // pair nets {2i, 2i+1}
		b.AddPin(net, 2*i)
		b.AddPin(net, 2*i+1)
		b.SetNetCost(net, 100)
		net++
	}
	for i := 0; i+1 < pairs; i++ { // cross nets {2i+1, 2i+3}
		b.AddPin(net, 2*i+1)
		b.AddPin(net, 2*i+3)
		net++
	}
	for bn := 0; bn < pairs; bn++ { // dense nets: all evens except 2*bn
		for i := 0; i < pairs; i++ {
			if i != bn {
				b.AddPin(net, 2*i)
			}
		}
		net++
	}
	for v := 0; v < numV; v += 2 {
		b.SetVertexWeight(v, 5)
	}
	h := b.Build()
	fixedSide := make([]int8, numV)
	for i := range fixedSide {
		fixedSide[i] = -1
	}

	opts := DefaultOptions()
	opts.coarsenTo = 54 // cluster cap 600/54+1 = 12: pair merges (6) and pair-cluster merges (12) fit
	opts.matchNetLimit = 10
	opts.normalize()
	levels := coarsen(bisectCtx{}, h, fixedSide, [2]float64{1e18, 1e18}, opts, rng.New(5), getScratch())

	if len(levels) != 2 {
		t.Fatalf("ladder has %d levels, want 2 (stop after the first pin-stalled level)", len(levels))
	}
	coarse := levels[1].h
	if coarse.NumVertices() >= numV*9/10 {
		t.Fatalf("vertex shrinkage stalled first (%d of %d): construction broken", coarse.NumVertices(), numV)
	}
	// The coarse level kept >95% of the compact pins — the condition the
	// ladder must now stop on.
	if coarse.NumPins()*20 <= h.NumPins()*19 {
		t.Fatalf("pins shrank too much (%d -> %d): construction no longer triggers the stall",
			h.NumPins(), coarse.NumPins())
	}
}

func TestMatchNetLimitSkipsDenseNets(t *testing.T) {
	// One giant net over all vertices plus a chain; with the limit
	// below the giant net's size, clustering must still proceed via
	// the chain nets.
	n := 500
	b := hypergraph.NewBuilder(n, n)
	for v := 0; v < n; v++ {
		b.AddPin(0, v)
	}
	for i := 0; i < n-1; i++ {
		b.AddPin(1+i, i)
		b.AddPin(1+i, i+1)
	}
	h := b.Build()
	fixedSide := make([]int8, n)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	opts := DefaultOptions()
	opts.matchNetLimit = 10
	opts.normalize()
	cmap, numC := cluster(h, fixedSide, [2]float64{1e18, 1e18}, opts, rng.New(3), getScratch())
	if numC >= n*9/10 {
		t.Fatalf("clustering stalled: %d clusters of %d vertices", numC, n)
	}
	_ = cmap
}
