package core_test

import (
	"testing"
	"testing/quick"

	"finegrain/internal/comm"
	"finegrain/internal/core"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
	"finegrain/internal/rng"
)

// TestVolumeTheoremFineGrain is the paper's central claim: for ANY
// partition of the fine-grain hypergraph, the connectivity−1 cutsize
// equals the measured total communication volume of the decoded
// decomposition.
func TestVolumeTheoremFineGrain(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(40)
		a := matgen.RandomPattern(n, n*(1+r.Intn(5)), seed)
		fg, err := core.BuildFineGrain(a)
		if err != nil {
			return false
		}
		k := 2 + r.Intn(6)
		p := hypergraph.NewPartition(fg.H.NumVertices(), k)
		for v := range p.Parts {
			p.Parts[v] = r.Intn(k)
		}
		asg, err := fg.Decode2D(p)
		if err != nil {
			return false
		}
		st, err := comm.Measure(asg)
		if err != nil {
			return false
		}
		return st.TotalVolume == p.CutsizeConnectivity(fg.H)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeTheorem1D: for the 1D column-net model, connectivity−1
// cutsize equals the (expand-only) volume of the rowwise decomposition.
func TestVolumeTheorem1D(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(40)
		a := matgen.RandomPattern(n, n*(1+r.Intn(5)), seed)
		cn, err := core.BuildColumnNet(a)
		if err != nil {
			return false
		}
		k := 2 + r.Intn(6)
		p := hypergraph.NewPartition(n, k)
		for v := range p.Parts {
			p.Parts[v] = r.Intn(k)
		}
		asg, err := cn.Decode1D(p)
		if err != nil {
			return false
		}
		st, err := comm.Measure(asg)
		if err != nil {
			return false
		}
		return st.FoldVolume == 0 && st.TotalVolume == p.CutsizeConnectivity(cn.H)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
