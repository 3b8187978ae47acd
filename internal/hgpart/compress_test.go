package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// withCompression runs f with the identical-net compression hook forced
// to on, restoring the previous (production) setting after. The hook is
// a package global, so tests using it must not run in parallel.
func withCompression(t *testing.T, on bool, f func()) {
	t.Helper()
	old := compressCoarseNets
	compressCoarseNets = on
	defer func() { compressCoarseNets = old }()
	f()
}

// TestContractCompressionExactCutsize is the local exactness property of
// identical-net merging and single-pin dropping: for any clustering and
// any partition of the coarse vertices, the compressed and uncompressed
// coarse hypergraphs have the same connectivity−1 cutsize. A single-pin
// net always has λ = 1 (contributes 0), and nets with identical pin
// lists have identical λ, so one net carrying the summed cost
// contributes exactly Σc·(λ−1).
func TestContractCompressionExactCutsize(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		numV := 20 + r.Intn(60)
		numN := 20 + r.Intn(80)
		h := randomHG(r, numV, numN)
		numC := 2 + numV/3
		cmap := make([]int, numV)
		for v := range cmap {
			cmap[v] = r.Intn(numC)
		}

		var compressed, reference *hypergraph.Hypergraph
		withCompression(t, true, func() {
			compressed, _ = contract(h, cmap, numC, new(scratch))
		})
		withCompression(t, false, func() {
			reference, _ = contract(h, cmap, numC, new(scratch))
		})
		if compressed.NumNets() > reference.NumNets() {
			t.Fatalf("trial %d: compression grew the net count (%d > %d)",
				trial, compressed.NumNets(), reference.NumNets())
		}

		const k = 3
		for rep := 0; rep < 4; rep++ {
			parts := make([]int, numC)
			for i := range parts {
				parts[i] = r.Intn(k)
			}
			p := &hypergraph.Partition{K: k, Parts: parts}
			got := p.CutsizeConnectivity(compressed)
			want := p.CutsizeConnectivity(reference)
			if got != want {
				t.Fatalf("trial %d rep %d: compressed cutsize %d, reference %d", trial, rep, got, want)
			}
		}
	}
}

// TestCompressionInvariantPartitions is the end-to-end property: the
// partitioner with net compression produces the same connectivity−1
// cutsize as the uncompressed reference on small random hypergraphs
// across seeds.
func TestCompressionInvariantPartitions(t *testing.T) {
	const k = 4
	t.Run("hcc", func(t *testing.T) {
		for seed := uint64(0); seed < 6; seed++ {
			h := randomHG(rng.New(seed*31+7), 250, 350)
			opts := DefaultOptions()
			opts.Seed = seed

			var pc, pr *hypergraph.Partition
			var errC, errR error
			withCompression(t, true, func() {
				pc, errC = Partition(h, k, opts)
			})
			withCompression(t, false, func() {
				pr, errR = Partition(h, k, opts)
			})
			if errC != nil || errR != nil {
				t.Fatalf("seed %d: errors %v / %v", seed, errC, errR)
			}
			got := pc.CutsizeConnectivity(h)
			want := pr.CutsizeConnectivity(h)
			if got != want {
				t.Fatalf("seed %d: compressed cutsize %d, reference %d", seed, got, want)
			}
		}
	})
}
