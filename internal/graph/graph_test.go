package graph

import (
	"testing"
	"testing/quick"

	"finegrain/internal/rng"
)

func randomGraph(r *rng.RNG, maxV, maxE int) *Graph {
	numV := 2 + r.Intn(maxV)
	b := NewBuilder(numV)
	edges := r.Intn(maxE)
	for e := 0; e < edges; e++ {
		b.AddEdge(r.Intn(numV), r.Intn(numV), 1+r.Intn(4))
	}
	for v := 0; v < numV; v++ {
		b.SetVertexWeight(v, 1+r.Intn(5))
	}
	return b.Build()
}

func triangle() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 0, 3)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	to, w := g.Adj(1)
	if len(to) != 2 || to[0] != 0 || to[1] != 2 || w[0] != 1 || w[1] != 2 {
		t.Fatalf("Adj(1) = %v %v", to, w)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d", g.Degree(0))
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 5)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("E = %d, want 1", g.NumEdges())
	}
}

func TestParallelEdgesMerged(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("E = %d, want 1", g.NumEdges())
	}
	if w, _ := g.edge(0, 1); w != 5 {
		t.Fatalf("merged weight %d, want 5", w)
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge symmetric lookup failed")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2, 1)
}

func TestValidateRandom(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		return randomGraph(rng.New(seed), 40, 120).Validate() == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalVertexWeight(t *testing.T) {
	b := NewBuilder(3)
	b.SetVertexWeight(0, 2)
	b.SetVertexWeight(1, 3)
	b.SetVertexWeight(2, 4)
	if w := b.Build().TotalVertexWeight(); w != 9 {
		t.Fatalf("total weight %d", w)
	}
}

func TestEdgeCut(t *testing.T) {
	g := triangle()
	p := &Partition{K: 2, Parts: []int{0, 0, 1}}
	// Edges (1,2) w2 and (2,0) w3 are cut.
	if cut := p.EdgeCut(g); cut != 5 {
		t.Fatalf("cut %d, want 5", cut)
	}
	all := &Partition{K: 1, Parts: []int{0, 0, 0}}
	if cut := all.EdgeCut(g); cut != 0 {
		t.Fatalf("cut %d, want 0", cut)
	}
}

func TestPartitionValidate(t *testing.T) {
	g := triangle()
	good := &Partition{K: 2, Parts: []int{0, 1, 0}}
	if err := good.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []*Partition{
		{K: 2, Parts: []int{0, 1}},
		{K: 2, Parts: []int{0, 1, 2}},
		{K: 0, Parts: []int{0, 0, 0}},
	} {
		if bad.Validate(g) == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestImbalanceAndBalanced(t *testing.T) {
	b := NewBuilder(4)
	for v, w := range []int{1, 1, 1, 5} {
		b.SetVertexWeight(v, w)
	}
	g := b.Build()
	p := &Partition{K: 2, Parts: []int{0, 0, 0, 1}}
	// Weights 3 and 5; avg 4 → 25%.
	if imb := p.Imbalance(g); imb < 24.9 || imb > 25.1 {
		t.Fatalf("imbalance %.2f", imb)
	}
	if p.Balanced(g, 0.2) {
		t.Fatal("should be unbalanced at 20%")
	}
	if !p.Balanced(g, 0.3) {
		t.Fatal("should be balanced at 30%")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := &Partition{K: 2, Parts: []int{0, 1, 0}}
	c := p.Clone()
	c.Parts[1] = 0
	if p.Parts[1] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestEdgeCutSymmetricCount(t *testing.T) {
	// Each undirected cut edge must be counted exactly once.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		g := randomGraph(r, 25, 80)
		k := 2 + r.Intn(3)
		p := NewPartition(g.NumVertices(), k)
		for v := range p.Parts {
			p.Parts[v] = r.Intn(k)
		}
		// Count by brute force over unordered pairs.
		want := 0
		for v := 0; v < g.NumVertices(); v++ {
			to, w := g.Adj(v)
			for i, u := range to {
				if u > v && p.Parts[u] != p.Parts[v] {
					want += w[i]
				}
			}
		}
		return p.EdgeCut(g) == want
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdge(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 0) // stored with weight 0: still an edge
	g := b.Build()
	for _, c := range []struct {
		u, v int
		want bool
	}{
		{0, 1, true},
		{1, 0, true},
		{1, 2, true},
		{2, 1, true},
		{0, 2, false},
		{2, 3, false},
		{3, 3, false},
	} {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d, %d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
	if g.Degree(2) != 1 {
		t.Fatalf("Degree(2) = %d, want 1", g.Degree(2))
	}
}

func TestFromCSRWrapsBuilderForm(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g := randomGraph(rng.New(seed), 40, 120)
		w := FromCSR(g.adjPtr, g.adjTo, g.adjW, g.vw)
		return w.Validate() == nil && w.NumVertices() == g.NumVertices() &&
			w.NumEdges() == g.NumEdges() && w.TotalVertexWeight() == g.TotalVertexWeight()
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsAsymmetricCSR(t *testing.T) {
	// 0→1 is stored but 1→0 is not.
	g := FromCSR([]int{0, 1, 1}, []int{1}, []int{0}, []int{1, 1})
	if g.Validate() == nil {
		t.Fatal("one-sided zero-weight edge accepted")
	}
}
