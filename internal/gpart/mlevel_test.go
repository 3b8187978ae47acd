package gpart

import (
	"slices"
	"testing"

	"finegrain/internal/graph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

func TestHeavyEdgeMatchLegality(t *testing.T) {
	r := rng.New(3)
	b := graph.NewBuilder(300)
	for e := 0; e < 900; e++ {
		b.AddEdge(r.Intn(300), r.Intn(300), 1+r.Intn(5))
	}
	g := b.Build()
	opts := mlpart.DefaultOptions()
	opts.Normalize()
	cmap, numC := heavyEdgeMatch(g, opts, r, new(scratch), new(rung))
	sizes := make([]int, numC)
	for v, c := range cmap {
		if c < 0 || c >= numC {
			t.Fatalf("vertex %d cluster %d out of range", v, c)
		}
		sizes[c]++
	}
	// Heavy-edge matching merges at most pairs.
	for c, s := range sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		if s > 2 {
			t.Fatalf("cluster %d has %d vertices; matching is pairwise", c, s)
		}
	}
	if numC >= 300 {
		t.Fatal("no matching happened on a dense random graph")
	}
}

func TestHeavyEdgeMatchPrefersHeavy(t *testing.T) {
	// Star with one heavy edge: the center must match its heavy
	// neighbor regardless of visit order.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(0, 3, 100)
	b.AddEdge(0, 4, 1)
	g := b.Build()
	opts := mlpart.DefaultOptions()
	opts.Normalize()
	// Try several seeds: whenever 0 initiates the match, it must pick 3.
	matched03 := 0
	for seed := uint64(0); seed < 20; seed++ {
		cmap, _ := heavyEdgeMatch(g, opts, rng.New(seed), new(scratch), new(rung))
		if cmap[0] == cmap[3] {
			matched03++
		}
	}
	if matched03 < 10 {
		t.Fatalf("0-3 matched only %d/20 times; heavy edge not preferred", matched03)
	}
}

func TestContractPreservesWeightAndDropsLoops(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 3) // intra-cluster after contraction → dropped
	b.AddEdge(1, 2, 2)
	b.AddEdge(0, 2, 4)
	b.AddEdge(2, 3, 1)
	b.SetVertexWeight(0, 2)
	b.SetVertexWeight(1, 5)
	g := b.Build()
	cmap := []int{0, 0, 1, 2}
	coarse := contract(g, cmap, 3, new(scratch), new(rung))
	if coarse.NumVertices() != 3 {
		t.Fatalf("coarse V = %d", coarse.NumVertices())
	}
	if coarse.VertexWeight(0) != 7 {
		t.Fatalf("merged weight %d, want 7", coarse.VertexWeight(0))
	}
	// Edges {0,1}w(2+4=6 merged parallel), {1,2}w1; self-loop dropped.
	if coarse.NumEdges() != 2 {
		t.Fatalf("coarse E = %d, want 2", coarse.NumEdges())
	}
	to, w := coarse.Adj(0)
	if len(to) != 1 || to[0] != 1 || w[0] != 6 {
		t.Fatalf("parallel edges not merged: %v %v", to, w)
	}
	if coarse.TotalVertexWeight() != g.TotalVertexWeight() {
		t.Fatal("contraction lost vertex weight")
	}
}

func TestCoarsenLadder(t *testing.T) {
	g := path(3000)
	opts := mlpart.DefaultOptions()
	opts.Normalize()
	levels := coarsen(g, opts, rng.New(2), nil, new(scratch))
	if len(levels) < 3 {
		t.Fatalf("only %d levels for a 3000-vertex path", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if err := levels[i].g.Validate(); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
		if levels[i].g.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("level %d lost weight", i)
		}
	}
}

func TestBisectionCutMatchesEdgeCut(t *testing.T) {
	r := rng.New(4)
	g := randomG(r, 200, 600)
	side := make([]int8, g.NumVertices())
	for v := range side {
		side[v] = int8(r.Intn(2))
	}
	p := &graph.Partition{K: 2, Parts: make([]int, g.NumVertices())}
	for v, s := range side {
		p.Parts[v] = int(s)
	}
	if mlpart.BisectionCut(edgeHypergraph(g, new(scratch)), side) != p.EdgeCut(g) {
		t.Fatal("BisectionCut of the edge hypergraph disagrees with EdgeCut")
	}
}

// TestFMPassKeepsGainsExact checks the invariant refineBisection relies
// on to skip recomputing gains: after every pass, moves and rollbacks
// included, each carried gain equals a fresh computation.
func TestFMPassKeepsGainsExact(t *testing.T) {
	r := rng.New(9)
	s := new(scratch)
	for trial := 0; trial < 20; trial++ {
		g := randomZeroG(r, 300, 1200)
		numV := g.NumVertices()
		side := make([]int8, numV)
		var w [2]float64
		for v := range side {
			side[v] = int8(r.Intn(2))
			w[side[v]] += float64(g.VertexWeight(v))
		}
		fresh := func() []int {
			gain := make([]int, numV)
			for v := range gain {
				to, ws := g.Adj(v)
				for i, u := range to {
					if side[u] == side[v] {
						gain[v] -= ws[i]
					} else {
						gain[v] += ws[i]
					}
				}
			}
			return gain
		}
		gain := fresh()
		maxBound := 1
		for v := 0; v < numV; v++ {
			sum := 0
			_, ws := g.Adj(v)
			for _, x := range ws {
				sum += x
			}
			maxBound = max(maxBound, sum)
		}
		caps := [2]float64{w[0] + w[1], w[0] + w[1]}
		for pass := 0; pass < 3; pass++ {
			fmPass(g, side, gain, &w, caps, maxBound, r, s)
			if want := fresh(); !slices.Equal(gain, want) {
				t.Fatalf("trial %d pass %d: carried gains %v, fresh %v", trial, pass, gain, want)
			}
		}
	}
}
