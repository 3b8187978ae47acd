// Package graph implements the weighted undirected graph substrate used
// by the baseline "standard graph model" for 1D matrix decomposition
// (the model the paper partitions with MeTiS). Vertices carry integer
// weights (computational load) and edges carry integer costs
// (approximate communication volume).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable undirected graph in CSR adjacency form. Each
// undirected edge {u, v} is stored twice, once per endpoint. Construct
// instances with a Builder, or wrap arrays already in canonical form
// with FromCSR.
type Graph struct {
	numV   int
	adjPtr []int
	adjTo  []int
	adjW   []int
	vw     []int
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.numV }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adjTo) / 2 }

// Adj returns the neighbors of v and the matching edge weights as
// sub-slices of the underlying storage. Callers must not modify them.
func (g *Graph) Adj(v int) (to []int, w []int) {
	lo, hi := g.adjPtr[v], g.adjPtr[v+1]
	return g.adjTo[lo:hi], g.adjW[lo:hi]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.adjPtr[v+1] - g.adjPtr[v] }

// VertexWeight returns w_v.
func (g *Graph) VertexWeight(v int) int { return g.vw[v] }

// TotalVertexWeight returns Σ w_v.
func (g *Graph) TotalVertexWeight() int {
	t := 0
	for _, w := range g.vw {
		t += w
	}
	return t
}

// String returns a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{V=%d, E=%d}", g.numV, g.NumEdges())
}

// FromCSR wraps CSR arrays as a graph without copying or checking them:
// vertex v's neighbours are adjTo[adjPtr[v]:adjPtr[v+1]] with weights
// adjW over the same range, and vw holds the vertex weights (so
// len(vw) is |V|). The arrays must already be in the form Build emits:
// symmetric, with sorted unique neighbour lists and no self-loops
// (Validate checks this). The graph aliases the arrays, so they must
// not change while it is in use.
func FromCSR(adjPtr, adjTo, adjW, vw []int) *Graph {
	return &Graph{numV: len(vw), adjPtr: adjPtr, adjTo: adjTo, adjW: adjW, vw: vw}
}

// Builder assembles a graph incrementally. Parallel edges are merged by
// Build with summed weights; self-loops are dropped.
type Builder struct {
	numV  int
	us    []int
	vs    []int
	ws    []int
	vwArr []int
}

// NewBuilder returns a builder for a graph with numV vertices of unit
// weight.
func NewBuilder(numV int) *Builder {
	b := &Builder{numV: numV, vwArr: make([]int, numV)}
	for i := range b.vwArr {
		b.vwArr[i] = 1
	}
	return b
}

// AddEdge records the undirected edge {u, v} with weight w. Duplicate
// edges accumulate weight; self-loops are ignored.
func (b *Builder) AddEdge(u, v, w int) {
	if u < 0 || u >= b.numV || v < 0 || v >= b.numV {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.numV))
	}
	if u == v {
		return
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// SetVertexWeight sets w_v.
func (b *Builder) SetVertexWeight(v, w int) { b.vwArr[v] = w }

// Build freezes the builder into an immutable graph.
func (b *Builder) Build() *Graph {
	g := &Graph{numV: b.numV, vw: append([]int(nil), b.vwArr...)}
	type half struct {
		to, w int
	}
	adj := make([][]half, b.numV)
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		adj[u] = append(adj[u], half{v, w})
		adj[v] = append(adj[v], half{u, w})
	}
	// Merge parallel edges per vertex.
	total := 0
	for v := range adj {
		hs := adj[v]
		sort.Slice(hs, func(i, j int) bool { return hs[i].to < hs[j].to })
		out := hs[:0]
		for _, h := range hs {
			if n := len(out); n > 0 && out[n-1].to == h.to {
				out[n-1].w += h.w
			} else {
				out = append(out, h)
			}
		}
		adj[v] = out
		total += len(out)
	}
	g.adjPtr = make([]int, b.numV+1)
	g.adjTo = make([]int, total)
	g.adjW = make([]int, total)
	pos := 0
	for v := range adj {
		g.adjPtr[v] = pos
		for _, h := range adj[v] {
			g.adjTo[pos] = h.to
			g.adjW[pos] = h.w
			pos++
		}
	}
	g.adjPtr[b.numV] = pos
	return g
}

// Validate checks structural invariants: symmetric adjacency with equal
// weights, sorted unique neighbor lists, no self-loops.
func (g *Graph) Validate() error {
	if len(g.adjPtr) != g.numV+1 {
		return errors.New("graph: adjPtr length mismatch")
	}
	if len(g.adjTo) != len(g.adjW) {
		return errors.New("graph: adjTo/adjW length mismatch")
	}
	if len(g.vw) != g.numV {
		return errors.New("graph: vertex weight length mismatch")
	}
	for v := 0; v < g.numV; v++ {
		if g.adjPtr[v] > g.adjPtr[v+1] {
			return fmt.Errorf("graph: adjPtr not monotone at %d", v)
		}
		to, w := g.Adj(v)
		prev := -1
		for i, u := range to {
			if u < 0 || u >= g.numV {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if u <= prev {
				return fmt.Errorf("graph: neighbors of %d not sorted/unique", v)
			}
			prev = u
			if back, ok := g.edge(u, v); !ok || back != w[i] {
				return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}", v, u)
			}
		}
	}
	return nil
}

// edge looks v up in u's sorted neighbour list and returns the edge's
// weight and whether it is stored.
func (g *Graph) edge(u, v int) (int, bool) {
	to, w := g.Adj(u)
	lo, hi := 0, len(to)
	for lo < hi {
		mid := (lo + hi) / 2
		if to[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(to) && to[lo] == v {
		return w[lo], true
	}
	return 0, false
}

// HasEdge reports whether {u, v} is an edge, whatever its weight: a
// stored edge of weight 0 is an edge, as Degree and Adj count it.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.edge(u, v)
	return ok
}
