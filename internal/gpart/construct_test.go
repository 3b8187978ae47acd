package gpart

import (
	"fmt"
	"slices"
	"testing"

	"finegrain/internal/graph"
	"finegrain/internal/rng"
)

// contractOracle is the graph.Builder construction contract replaced:
// each fine edge {v, u} joining two clusters is added once, and Build
// merges parallel edges and sorts the neighbour lists.
func contractOracle(g *graph.Graph, cmap []int, numC int) *graph.Graph {
	b := graph.NewBuilder(numC)
	w := make([]int, numC)
	for v := 0; v < g.NumVertices(); v++ {
		w[cmap[v]] += g.VertexWeight(v)
	}
	for c, wc := range w {
		b.SetVertexWeight(c, wc)
	}
	for v := 0; v < g.NumVertices(); v++ {
		to, ew := g.Adj(v)
		for i, u := range to {
			if u > v && cmap[u] != cmap[v] {
				b.AddEdge(cmap[v], cmap[u], ew[i])
			}
		}
	}
	return b.Build()
}

// inducedOracle is the graph.Builder construction inducedSide replaced.
func inducedOracle(g *graph.Graph, ids []int, side []int8, want int8) (*graph.Graph, []int) {
	local := make([]int, g.NumVertices())
	var subIDs []int
	n := 0
	for v := range local {
		local[v] = -1
		if side[v] == want {
			local[v] = n
			subIDs = append(subIDs, ids[v])
			n++
		}
	}
	b := graph.NewBuilder(n)
	for v := 0; v < g.NumVertices(); v++ {
		if local[v] < 0 {
			continue
		}
		b.SetVertexWeight(local[v], g.VertexWeight(v))
		to, w := g.Adj(v)
		for i, u := range to {
			if u > v && local[u] >= 0 {
				b.AddEdge(local[v], local[u], w[i])
			}
		}
	}
	return b.Build(), subIDs
}

// sameGraph requires got to be valid and to equal want array for array:
// vertex count, vertex weights, and every neighbour and weight list.
func sameGraph(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: V=%d E=%d, want V=%d E=%d", name,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < want.NumVertices(); v++ {
		if got.VertexWeight(v) != want.VertexWeight(v) {
			t.Fatalf("%s: vertex %d weight %d, want %d", name, v, got.VertexWeight(v), want.VertexWeight(v))
		}
		gt, gw := got.Adj(v)
		wt, ww := want.Adj(v)
		if !slices.Equal(gt, wt) || !slices.Equal(gw, ww) {
			t.Fatalf("%s: Adj(%d) = %v %v, want %v %v", name, v, gt, gw, wt, ww)
		}
	}
}

// randomZeroG is a random graph whose edge weights include 0.
func randomZeroG(r *rng.RNG, maxV, maxE int) *graph.Graph {
	numV := 1 + r.Intn(maxV)
	b := graph.NewBuilder(numV)
	for e := r.Intn(maxE + 1); e > 0; e-- {
		b.AddEdge(r.Intn(numV), r.Intn(numV), r.Intn(3))
	}
	for v := 0; v < numV; v++ {
		b.SetVertexWeight(v, r.Intn(4))
	}
	return b.Build()
}

// TestContractMatchesBuilder compares the direct coarse CSR with the
// Builder reference on random graphs and cluster maps. One scratch and
// one rung serve every case, so buffers are reused across sizes as they
// are across levels.
func TestContractMatchesBuilder(t *testing.T) {
	r := rng.New(21)
	s, rg := new(scratch), new(rung)
	for trial := 0; trial < 200; trial++ {
		g := randomZeroG(r, 60, 200)
		numV := g.NumVertices()
		var numC int
		switch trial % 4 {
		case 0:
			numC = 1 // one cluster absorbs every vertex
		case 1:
			numC = numV // clusters are a permutation of the vertices
		default:
			numC = 1 + r.Intn(numV)
		}
		cmap := make([]int, numV)
		if trial%4 == 1 {
			copy(cmap, r.Perm(numV))
		} else {
			for v := range cmap {
				cmap[v] = r.Intn(numC)
			}
		}
		name := fmt.Sprintf("trial %d (V=%d, C=%d)", trial, numV, numC)
		sameGraph(t, name, contract(g, cmap, numC, s, rg), contractOracle(g, cmap, numC))
	}
}

func TestContractKeepsZeroWeightEdge(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 2, 0)
	b.AddEdge(1, 3, 0)
	b.AddEdge(0, 1, 5)
	g := b.Build()
	cmap := []int{0, 0, 1, 1}
	coarse := contract(g, cmap, 2, new(scratch), new(rung))
	sameGraph(t, "zero-weight", coarse, contractOracle(g, cmap, 2))
	if !coarse.HasEdge(0, 1) {
		t.Fatal("zero-weight coarse edge dropped")
	}
}

// TestInducedSideMatchesBuilder compares the direct induced subgraph
// with the Builder reference on random graphs and sides, including
// sides that keep no vertex or every vertex.
func TestInducedSideMatchesBuilder(t *testing.T) {
	r := rng.New(22)
	s := new(scratch)
	for trial := 0; trial < 200; trial++ {
		g := randomZeroG(r, 60, 200)
		numV := g.NumVertices()
		ids := r.Perm(3 * numV)[:numV]
		side := make([]int8, numV)
		for v := range side {
			switch trial % 3 {
			case 0:
				side[v] = 1 // side 0 is empty
			case 1:
				side[v] = int8(r.Intn(2))
			default:
				side[v] = int8(r.Intn(8) / 7)
			}
		}
		for want := int8(0); want < 2; want++ {
			name := fmt.Sprintf("trial %d side %d", trial, want)
			got, gotIDs := inducedSide(g, ids, side, want, s, s.childAt(1, want))
			ref, refIDs := inducedOracle(g, ids, side, want)
			sameGraph(t, name, got, ref)
			if len(gotIDs) != len(refIDs) || !slices.Equal(gotIDs, refIDs) {
				t.Fatalf("%s: ids %v, want %v", name, gotIDs, refIDs)
			}
		}
	}
}
