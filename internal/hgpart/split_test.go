package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
)

// TestInducedSideNetSplitting checks the recursive-bisection semantics
// of the connectivity−1 metric: a net cut by the current bisection must
// survive (split) into both sides, because splitting its pins further
// on either side adds to λ.
func TestInducedSideNetSplitting(t *testing.T) {
	b := hypergraph.NewBuilder(6, 3)
	// net 0 spans both sides (pins 0,1 | 3,4); net 1 internal left;
	// net 2 has a single pin on the right after the split.
	b.AddPin(0, 0)
	b.AddPin(0, 1)
	b.AddPin(0, 3)
	b.AddPin(0, 4)
	b.AddPin(1, 0)
	b.AddPin(1, 2)
	b.AddPin(2, 1)
	b.AddPin(2, 5)
	b.SetNetCost(0, 7)
	h := b.Build()
	ids := []int{0, 1, 2, 3, 4, 5}
	side := []int8{0, 0, 0, 1, 1, 1}

	left, leftIDs := inducedSide(h, ids, side, 0, new(scratch))
	right, rightIDs := inducedSide(h, ids, side, 1, new(scratch))

	if len(leftIDs) != 3 || len(rightIDs) != 3 {
		t.Fatalf("side sizes %d/%d", len(leftIDs), len(rightIDs))
	}
	// Left keeps net 0 (pins 0,1) with cost 7 and net 1 (pins 0,2);
	// net 2 has a single left pin and is dropped.
	if left.NumNets() != 2 {
		t.Fatalf("left nets %d, want 2", left.NumNets())
	}
	foundCost7 := false
	for n := 0; n < left.NumNets(); n++ {
		if left.NetCost(n) == 7 && left.NetSize(n) == 2 {
			foundCost7 = true
		}
	}
	if !foundCost7 {
		t.Fatal("cut net not split into the left side with its cost")
	}
	// Right keeps only net 0 (pins 3,4); nets 1 and 2 have ≤1 pin.
	if right.NumNets() != 1 {
		t.Fatalf("right nets %d, want 1", right.NumNets())
	}
	if right.NetCost(0) != 7 || right.NetSize(0) != 2 {
		t.Fatalf("right net cost %d size %d", right.NetCost(0), right.NetSize(0))
	}
	// Global IDs preserved.
	for i, g := range leftIDs {
		if side[g] != 0 {
			t.Fatalf("left id %d (global %d) from wrong side", i, g)
		}
	}
}

// TestRBAdditivity: the final K-way connectivity−1 cutsize must equal
// the sum over bisections of their local cuts when computed through net
// splitting. We verify the end-to-end identity on a concrete case: the
// total cut reported on the original hypergraph cannot be less than the
// first bisection's cut (net splitting only adds λ contributions).
func TestRBAdditivity(t *testing.T) {
	h := chain(256)
	opts := DefaultOptions()
	opts.Seed = 5
	p4, err := Partition(h, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Merge parts {0,1} and {2,3} to recover the top-level bisection.
	p2 := &hypergraph.Partition{K: 2, Parts: make([]int, h.NumVertices())}
	for v, part := range p4.Parts {
		p2.Parts[v] = part / 2
	}
	if p2.CutsizeConnectivity(h) > p4.CutsizeConnectivity(h) {
		t.Fatalf("coarsened partition cut %d exceeds refined %d",
			p2.CutsizeConnectivity(h), p4.CutsizeConnectivity(h))
	}
}
