package core

import (
	"fmt"
	"slices"
	"testing"

	"finegrain/internal/graph"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// standardGraphOracle builds the standard graph model with graph.Builder
// and a binary-search test per pair: the reference BuildStandardGraph's
// direct CSR must reproduce.
func standardGraphOracle(a *sparse.CSR) *graph.Graph {
	m := a.Rows
	b := graph.NewBuilder(m)
	for i := 0; i < m; i++ {
		b.SetVertexWeight(i, a.RowNNZ(i))
	}
	t := a.Transpose()
	for i := 0; i < m; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j <= i {
				continue
			}
			cost := 1
			if t.Has(i, j) {
				cost = 2
			}
			b.AddEdge(i, j, cost)
		}
		tcols, _ := t.Row(i)
		for _, j := range tcols {
			if j <= i || a.Has(i, j) {
				continue
			}
			b.AddEdge(i, j, 1)
		}
	}
	return b.Build()
}

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

func randomSquare(r *rng.RNG, n, nnz int, diag bool) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for e := 0; e < nnz; e++ {
		coo.Add(r.Intn(n), r.Intn(n), 1)
	}
	if diag {
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
	}
	return coo.ToCSR()
}

func TestStandardGraphMatchesBuilder(t *testing.T) {
	r := rng.New(17)
	cases := map[string]*sparse.CSR{
		"figure1": figure1(),
		"empty":   sparse.NewCOO(4, 4).ToCSR(),
		"1x1":     sparse.FromEntries(1, 1, []sparse.Entry{{Row: 0, Col: 0, Val: 1}}),
	}
	// Lower triangle only: every edge is one-sided (cost 1).
	lower := sparse.NewCOO(30, 30)
	for i := 0; i < 30; i++ {
		for j := 0; j < i; j += 1 + r.Intn(4) {
			lower.Add(i, j, 1)
		}
	}
	cases["lower-triangular"] = lower.ToCSR()
	// Empty rows: only even rows hold entries.
	sparseRows := sparse.NewCOO(40, 40)
	for e := 0; e < 120; e++ {
		sparseRows.Add(2*r.Intn(20), r.Intn(40), 1)
	}
	cases["empty-rows"] = sparseRows.ToCSR()
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(60)
		cases[fmt.Sprintf("random-%d", trial)] = randomSquare(r, n, r.Intn(4*n), trial%2 == 0)
	}
	for name, a := range cases {
		sg, err := BuildStandardGraph(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameGraph(t, name, sg.G, standardGraphOracle(a))
	}
}
