package mediumgrain_test

import (
	"testing"

	"finegrain/internal/comm"
	"finegrain/internal/hgpart"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
	"finegrain/internal/mediumgrain"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// TestBuildStructure checks the model's shape: m+n vertices and nets,
// group weights summing to nnz, and every net containing its own group
// vertex (the consistency pin).
func TestBuildStructure(t *testing.T) {
	a := matgen.Random(40, 300, 3)
	mg, err := mediumgrain.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	m, n := a.Rows, a.Cols
	if mg.H.NumVertices() != m+n || mg.H.NumNets() != m+n {
		t.Fatalf("got %d vertices / %d nets, want %d both", mg.H.NumVertices(), mg.H.NumNets(), m+n)
	}
	if w := mg.H.TotalVertexWeight(); w != a.NNZ() {
		t.Fatalf("total vertex weight %d, want nnz %d", w, a.NNZ())
	}
	for i := 0; i < m; i++ {
		if !hasPin(mg.H.Pins(i), mg.RowVertex(i)) {
			t.Fatalf("row net %d missing its group vertex", i)
		}
	}
	for j := 0; j < n; j++ {
		if !hasPin(mg.H.Pins(m+j), mg.ColVertex(j)) {
			t.Fatalf("column net %d missing its group vertex", j)
		}
	}
	if _, err := mediumgrain.Build(matgen.Random(8, 20, 1).EnsureNonemptyRowsCols()); err != nil {
		t.Fatal(err)
	}
}

func hasPin(pins []int, v int) bool {
	for _, p := range pins {
		if p == v {
			return true
		}
	}
	return false
}

// TestCutsizeIsExactVolume is the house exactness property, checked on
// random matrices and random-but-valid partitions as well as real
// partitioner output: the connectivity−1 cutsize of the medium-grain
// hypergraph equals comm.Measure's total volume of the decoded
// decomposition, word for word.
func TestCutsizeIsExactVolume(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 12; trial++ {
		n := 10 + r.Intn(50)
		a := matgen.Random(n, 3*n+r.Intn(5*n), uint64(trial))
		mg, err := mediumgrain.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + r.Intn(7)
		p := randomPartition(mg, k, r)
		asg, err := mg.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := asg.Validate(); err != nil {
			t.Fatal(err)
		}
		st, err := comm.Measure(asg)
		if err != nil {
			t.Fatal(err)
		}
		if cut := p.CutsizeConnectivity(mg.H); cut != st.TotalVolume {
			t.Fatalf("trial %d: cutsize %d != measured volume %d", trial, cut, st.TotalVolume)
		}
	}
}

func randomPartition(mg *mediumgrain.Model, k int, r *rng.RNG) *hypergraph.Partition {
	p := hypergraph.NewPartition(mg.H.NumVertices(), k)
	for v := range p.Parts {
		p.Parts[v] = r.Intn(k)
	}
	return p
}

// TestPartitionedPipeline runs the real multilevel partitioner over the
// model and checks decode + exactness end to end, plus determinism
// across worker counts (the house invariant).
func TestPartitionedPipeline(t *testing.T) {
	a := matgen.Random(120, 1100, 9).EnsureNonemptyRowsCols()
	mg, err := mediumgrain.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := hgpart.DefaultOptions()
	opts.Seed = 5
	p, err := hgpart.PartitionFixed(mg.H, 6, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := mg.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := comm.Measure(asg)
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.CutsizeConnectivity(mg.H); cut != st.TotalVolume {
		t.Fatalf("cutsize %d != measured volume %d", cut, st.TotalVolume)
	}
	// Nonzeros follow their group's part.
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			want := p.Parts[mg.ColVertex(a.ColIdx[k])]
			if mg.InRowGroup(k) {
				want = p.Parts[mg.RowVertex(i)]
			}
			if asg.NonzeroOwner[k] != want {
				t.Fatalf("nonzero %d owner %d, group part %d", k, asg.NonzeroOwner[k], want)
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		o := opts
		o.Workers = workers
		q, err := hgpart.PartitionFixed(mg.H, 6, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		for v := range q.Parts {
			if q.Parts[v] != p.Parts[v] {
				t.Fatalf("Workers=%d: partition differs at vertex %d", workers, v)
			}
		}
	}
}

// TestRejectsNonSquare pins the facade contract.
func TestRejectsNonSquare(t *testing.T) {
	coo := sparse.NewCOO(3, 4)
	coo.Add(0, 0, 1)
	coo.Add(2, 3, 1)
	if _, err := mediumgrain.Build(coo.ToCSR()); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

// TestBuildMatchesBuilder checks Build against the model built pin by
// pin through hypergraph.Builder, with the split heuristic recomputed
// here, on random square matrices with empty rows and columns and with
// a full or a partial diagonal (a consistency pin may repeat a pin).
func TestBuildMatchesBuilder(t *testing.T) {
	r := rng.New(59)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(50)
		coo := sparse.NewCOO(n, n)
		for e := r.Intn(4 * n); e > 0; e-- {
			coo.Add(r.Intn(n), r.Intn(n), 1)
		}
		if trial%2 == 0 {
			for i := 0; i < n; i++ {
				coo.Add(i, i, 1)
			}
		}
		a := coo.ToCSR()
		mg, err := mediumgrain.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		colCount := make([]int, n)
		for _, j := range a.ColIdx {
			colCount[j]++
		}
		b := hypergraph.NewBuilder(2*n, 2*n)
		weight := make([]int, 2*n)
		for i := 0; i < n; i++ {
			b.AddPin(i, i)
			b.AddPin(n+i, n+i)
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if colCount[j] < a.RowNNZ(i) {
					weight[n+j]++
					b.AddPin(i, n+j)
				} else {
					weight[i]++
					b.AddPin(n+j, i)
				}
			}
		}
		for v, w := range weight {
			b.SetVertexWeight(v, w)
		}
		if err := hypergraph.Diff(mg.H, b.Build()); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
	}
}
