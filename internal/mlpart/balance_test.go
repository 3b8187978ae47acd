package mlpart

import (
	"testing"

	"finegrain/internal/graph"
	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// kwayBalance runs Balance on a hypergraph partition under the
// connectivity−1 delta, as the hypergraph partitioner does.
func kwayBalance(h *hypergraph.Hypergraph, p *hypergraph.Partition, fixed []int, eps float64) {
	Balance(p.K, p.Parts, h.VertexWeights(), fixed, eps, func(v, from, to int) int {
		return p.MoveDelta(h, v, from, to)
	})
}

// cutBalance runs Balance on a graph partition under the edge-cut
// delta, as the graph partitioner does.
func cutBalance(g *graph.Graph, p *graph.Partition, fixed []int, eps float64) {
	Balance(p.K, p.Parts, g.VertexWeights(), fixed, eps, func(v, from, to int) int {
		return p.MoveDelta(g, v, from, to)
	})
}

func TestKWayBalanceFixesImbalance(t *testing.T) {
	// Deliberately imbalanced partition of a simple hypergraph.
	b := hypergraph.NewBuilder(100, 50)
	r := rng.New(6)
	for n := 0; n < 50; n++ {
		b.AddPin(n, r.Intn(100))
		b.AddPin(n, r.Intn(100))
	}
	h := b.Build()
	p := hypergraph.NewPartition(100, 4)
	for v := 0; v < 100; v++ {
		if v < 70 {
			p.Parts[v] = 0
		} else {
			p.Parts[v] = 1 + v%3
		}
	}
	kwayBalance(h, p, nil, 0.03)
	if imb := p.Imbalance(h); imb > 3.5 {
		t.Fatalf("balance repair left %.2f%%", imb)
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestKWayBalanceHeavyAtoms(t *testing.T) {
	// Parts made only of heavy atoms: the swap fallback must engage.
	b := hypergraph.NewBuilder(8, 1)
	b.AddPin(0, 0)
	weightsIn := []int{188, 176, 172, 132, 186, 137, 116, 110}
	for v, w := range weightsIn {
		b.SetVertexWeight(v, w)
	}
	h := b.Build()
	p := &hypergraph.Partition{K: 2, Parts: []int{0, 0, 0, 0, 1, 1, 1, 1}}
	// 668 vs 549, avg 608.5, cap 626.8 at 3%.
	kwayBalance(h, p, nil, 0.03)
	w := p.PartWeights(h)
	max := w[0]
	if w[1] > max {
		max = w[1]
	}
	if float64(max) > 608.5*1.031 {
		t.Fatalf("heavy-atom repair failed: weights %v", w)
	}
}

// TestMoveDeltas checks both objectives' deltas against the change in
// the objective itself, for every move of every vertex of a random
// graph and hypergraph.
func TestMoveDeltas(t *testing.T) {
	const n, k = 40, 4
	r := rng.New(3)
	gb := graph.NewBuilder(n)
	hb := hypergraph.NewBuilder(n, 30)
	for e := 0; e < 90; e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			gb.AddEdge(u, v, 1+r.Intn(4))
		}
	}
	for net := 0; net < 30; net++ {
		hb.SetNetCost(net, 1+r.Intn(3))
		for i := 0; i < 2+r.Intn(4); i++ {
			hb.AddPin(net, r.Intn(n))
		}
	}
	g, h := gb.Build(), hb.Build()
	gp, hp := graph.NewPartition(n, k), hypergraph.NewPartition(n, k)
	for v := 0; v < n; v++ {
		gp.Parts[v] = r.Intn(k)
		hp.Parts[v] = gp.Parts[v]
	}
	for v := 0; v < n; v++ {
		from := gp.Parts[v]
		for to := 0; to < k; to++ {
			if to == from {
				continue
			}
			cut, conn := gp.EdgeCut(g), hp.CutsizeConnectivity(h)
			dCut, dConn := gp.MoveDelta(g, v, from, to), hp.MoveDelta(h, v, from, to)
			gp.Parts[v], hp.Parts[v] = to, to
			if got := gp.EdgeCut(g) - cut; got != dCut {
				t.Fatalf("edge cut: moving %d %d→%d changes it by %d, MoveDelta %d", v, from, to, got, dCut)
			}
			if got := hp.CutsizeConnectivity(h) - conn; got != dConn {
				t.Fatalf("connectivity: moving %d %d→%d changes it by %d, MoveDelta %d", v, from, to, got, dConn)
			}
			gp.Parts[v], hp.Parts[v] = from, from
		}
	}
}

// path returns the unit-weight path 0 − 1 − … − n−1.
func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, 1)
	}
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 1)
	}
	return b.Build()
}

// TestBalanceEdgeCut balances a path with five vertices in part 0 and
// the last one in part 1. Under the edge-cut delta the cheapest moves
// are the vertices next to part 1, one after the other, so the repair
// leaves a single cut edge.
func TestBalanceEdgeCut(t *testing.T) {
	g := path(6)
	p := &graph.Partition{K: 2, Parts: []int{0, 0, 0, 0, 0, 1}}
	cutBalance(g, p, nil, 0.03)
	want := []int{0, 0, 0, 1, 1, 1}
	for v := range want {
		if p.Parts[v] != want[v] {
			t.Fatalf("parts %v, want %v", p.Parts, want)
		}
	}
	if cut := p.EdgeCut(g); cut != 1 {
		t.Fatalf("edge cut %d, want 1", cut)
	}
}

// TestBalanceFixedNeverMoves pins the vertex the repair would move
// first and checks that the repair balances the parts without it.
func TestBalanceFixedNeverMoves(t *testing.T) {
	g := path(6)
	free := &graph.Partition{K: 2, Parts: []int{0, 0, 0, 0, 0, 1}}
	cutBalance(g, free, nil, 0.03)
	if free.Parts[4] != 1 {
		t.Fatalf("unpinned repair left vertex 4 in part %d; the test needs it moved", free.Parts[4])
	}

	fixed := []int{-1, -1, -1, -1, 0, -1}
	p := &graph.Partition{K: 2, Parts: []int{0, 0, 0, 0, 0, 1}}
	cutBalance(g, p, fixed, 0.03)
	if p.Parts[4] != 0 {
		t.Fatalf("fixed vertex 4 moved to part %d", p.Parts[4])
	}
	if !p.Balanced(g, 0.03) {
		t.Fatalf("parts %v not balanced", p.Parts)
	}
}

// TestBalanceShedEscape starts from a part of two weight-6 vertices
// that outweigh any room the lightest part has, and where no swap with
// its unit vertices fits. Only shedding unit vertices from the
// receiver to the other parts makes room, after which every part is
// within the cap.
func TestBalanceShedEscape(t *testing.T) {
	const eps = 0.1
	// Part 0: two vertices of weight 6; parts 1, 2, 3: seven unit
	// vertices each. Total 33, cap 33/4 × 1.1 = 9.075.
	vw := []int{6, 6}
	parts := []int{0, 0}
	for part := 1; part <= 3; part++ {
		for i := 0; i < 7; i++ {
			vw = append(vw, 1)
			parts = append(parts, part)
		}
	}
	Balance(4, parts, vw, nil, eps, func(int, int, int) int { return 0 })
	weights := make([]int, 4)
	for v, part := range parts {
		weights[part] += vw[v]
	}
	for part, w := range weights {
		if float64(w) > 33.0/4*(1+eps) {
			t.Fatalf("part %d weighs %d; weights %v", part, w, weights)
		}
	}
	if parts[0] == parts[1] {
		t.Fatalf("both weight-6 vertices still share part %d; weights %v", parts[0], weights)
	}
}
