package hypergraph

import (
	"errors"
	"fmt"
)

// Partition is a K-way assignment of vertices to parts 0..K-1.
type Partition struct {
	K     int
	Parts []int // Parts[v] ∈ [0, K)
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

// Validate checks that p is a well-formed partition of h: every vertex
// assigned a part in range, and (per the paper's definition) every part
// non-empty.
func (p *Partition) Validate(h *Hypergraph) error {
	if len(p.Parts) != h.NumVertices() {
		return fmt.Errorf("hypergraph: partition covers %d vertices, hypergraph has %d",
			len(p.Parts), h.NumVertices())
	}
	if p.K <= 0 {
		return errors.New("hypergraph: partition must have K >= 1")
	}
	seen := make([]bool, p.K)
	for v, part := range p.Parts {
		if part < 0 || part >= p.K {
			return fmt.Errorf("hypergraph: vertex %d assigned part %d out of [0,%d)", v, part, p.K)
		}
		seen[part] = true
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("hypergraph: part %d is empty", k)
		}
	}
	return nil
}

// PartWeights returns W_k = Σ_{v ∈ P_k} w_v for each part.
func (p *Partition) PartWeights(h *Hypergraph) []int {
	w := make([]int, p.K)
	for v, part := range p.Parts {
		w[part] += h.VertexWeight(v)
	}
	return w
}

// Imbalance returns the percent imbalance ratio
// 100·(W_max − W_avg)/W_avg, the measure reported in the paper's
// experiments ("percent load imbalance values are below 3%").
func (p *Partition) Imbalance(h *Hypergraph) float64 {
	w := p.PartWeights(h)
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

// Balanced reports whether every part satisfies the balance criterion
// (1): W_k ≤ W_avg·(1+ε).
func (p *Partition) Balanced(h *Hypergraph, eps float64) bool {
	w := p.PartWeights(h)
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

// Connectivity returns λ_n, the number of distinct parts net n's pins
// touch, and fills parts (if non-nil) with the connectivity set Λ_n.
func (p *Partition) Connectivity(h *Hypergraph, n int) int {
	seen := make(map[int]struct{}, 4)
	for _, v := range h.Pins(n) {
		seen[p.Parts[v]] = struct{}{}
	}
	return len(seen)
}

// ConnectivitySet returns Λ_n as a sorted slice of part indices.
func (p *Partition) ConnectivitySet(h *Hypergraph, n int) []int {
	seen := make(map[int]struct{}, 4)
	for _, v := range h.Pins(n) {
		seen[p.Parts[v]] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	insertionSort(out)
	return out
}

// CutNets returns the indices of external (cut) nets: λ_n > 1.
func (p *Partition) CutNets(h *Hypergraph) []int {
	var out []int
	for n := 0; n < h.NumNets(); n++ {
		if p.Connectivity(h, n) > 1 {
			out = append(out, n)
		}
	}
	return out
}

// CutsizeCutNet computes cutsize definition (2): Σ_{cut n} c_n.
func (p *Partition) CutsizeCutNet(h *Hypergraph) int {
	cs := newConnCounter(p.K)
	total := 0
	for n := 0; n < h.NumNets(); n++ {
		if cs.lambda(h.Pins(n), p.Parts) > 1 {
			total += h.NetCost(n)
		}
	}
	return total
}

// CutsizeConnectivity computes cutsize definition (3):
// Σ_{cut n} c_n·(λ_n − 1). For the fine-grain model this equals the
// total communication volume of the decomposition — the identity the
// comm package's tests assert.
func (p *Partition) CutsizeConnectivity(h *Hypergraph) int {
	cs := newConnCounter(p.K)
	total := 0
	for n := 0; n < h.NumNets(); n++ {
		if l := cs.lambda(h.Pins(n), p.Parts); l > 1 {
			total += h.NetCost(n) * (l - 1)
		}
	}
	return total
}

// MoveDelta returns the change in CutsizeConnectivity if vertex v, now
// in part from, moved to part to: each of v's nets gains connectivity
// when it has no pin in to yet and loses it when v is its last pin in
// from.
func (p *Partition) MoveDelta(h *Hypergraph, v, from, to int) int {
	delta := 0
	for _, n := range h.Nets(v) {
		sigmaFrom, sigmaTo := 0, 0
		for _, u := range h.Pins(n) {
			switch p.Parts[u] {
			case from:
				sigmaFrom++
			case to:
				sigmaTo++
			}
		}
		if sigmaTo == 0 {
			delta += h.NetCost(n)
		}
		if sigmaFrom == 1 {
			delta -= h.NetCost(n)
		}
	}
	return delta
}

// connCounter computes net connectivities with an epoch-stamped mark
// array, avoiding a map allocation per net.
type connCounter struct {
	stamp []int
	epoch int
}

func newConnCounter(k int) *connCounter {
	return &connCounter{stamp: make([]int, k)}
}

func (c *connCounter) lambda(pins []int, parts []int) int {
	c.epoch++
	count := 0
	for _, v := range pins {
		p := parts[v]
		if c.stamp[p] != c.epoch {
			c.stamp[p] = c.epoch
			count++
		}
	}
	return count
}

// NetConnectivities returns λ_n for every net in one pass.
func (p *Partition) NetConnectivities(h *Hypergraph) []int {
	cs := newConnCounter(p.K)
	out := make([]int, h.NumNets())
	for n := range out {
		out[n] = cs.lambda(h.Pins(n), p.Parts)
	}
	return out
}
