package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

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
