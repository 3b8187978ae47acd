package graph

import (
	"errors"
	"fmt"
)

// Partition is a K-way assignment of vertices to parts 0..K-1.
type Partition struct {
	K     int
	Parts []int
}

// NewPartition returns an all-zeros partition of numV vertices into k
// parts.
func NewPartition(numV, k int) *Partition {
	return &Partition{K: k, Parts: make([]int, numV)}
}

// Clone returns a deep copy of p.
func (p *Partition) Clone() *Partition {
	return &Partition{K: p.K, Parts: append([]int(nil), p.Parts...)}
}

// Validate checks that p is a well-formed partition of g.
func (p *Partition) Validate(g *Graph) error {
	if len(p.Parts) != g.NumVertices() {
		return fmt.Errorf("graph: partition covers %d vertices, graph has %d",
			len(p.Parts), g.NumVertices())
	}
	if p.K <= 0 {
		return errors.New("graph: partition must have K >= 1")
	}
	for v, part := range p.Parts {
		if part < 0 || part >= p.K {
			return fmt.Errorf("graph: vertex %d assigned part %d out of [0,%d)", v, part, p.K)
		}
	}
	return nil
}

// EdgeCut returns Σ w(e) over edges with endpoints in different parts —
// the objective the standard graph model minimizes (and the quantity
// that only approximates communication volume; the paper's point).
func (p *Partition) EdgeCut(g *Graph) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		to, w := g.Adj(v)
		for i, u := range to {
			if u > v && p.Parts[u] != p.Parts[v] {
				cut += w[i]
			}
		}
	}
	return cut
}

// MoveDelta returns the change in EdgeCut if vertex v, now in part
// from, moved to part to: its edges into from become cut and its edges
// into to become internal.
func (p *Partition) MoveDelta(g *Graph, v, from, to int) int {
	delta := 0
	adj, w := g.Adj(v)
	for i, u := range adj {
		switch p.Parts[u] {
		case from:
			delta += w[i]
		case to:
			delta -= w[i]
		}
	}
	return delta
}

// PartWeights returns W_k for each part.
func (p *Partition) PartWeights(g *Graph) []int {
	w := make([]int, p.K)
	for v, part := range p.Parts {
		w[part] += g.VertexWeight(v)
	}
	return w
}

// Imbalance returns the percent imbalance ratio 100·(W_max − W_avg)/W_avg.
func (p *Partition) Imbalance(g *Graph) float64 {
	w := p.PartWeights(g)
	max, total := 0, 0
	for _, x := range w {
		total += x
		if x > max {
			max = x
		}
	}
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(p.K)
	return 100 * (float64(max) - avg) / avg
}

// Balanced reports whether every part satisfies W_k ≤ W_avg(1+ε).
func (p *Partition) Balanced(g *Graph, eps float64) bool {
	w := p.PartWeights(g)
	total := 0
	for _, x := range w {
		total += x
	}
	limit := float64(total) / float64(p.K) * (1 + eps)
	for _, x := range w {
		if float64(x) > limit {
			return false
		}
	}
	return true
}
