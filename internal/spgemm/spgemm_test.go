package spgemm_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"finegrain/internal/hgpart"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
	"finegrain/internal/spgemm"
)

// randomRect builds a random rectangular pattern — matgen only makes
// square matrices, and SpGEMM must be exercised on a genuinely
// rectangular pair too.
func randomRect(m, n, nnz int, seed uint64) *sparse.CSR {
	r := rng.New(seed)
	coo := sparse.NewCOO(m, n)
	seen := make(map[[2]int]bool, nnz)
	for len(seen) < nnz {
		i, j := r.Intn(m), r.Intn(n)
		if !seen[[2]int{i, j}] {
			seen[[2]int{i, j}] = true
			coo.Add(i, j, r.Float64()+0.5)
		}
	}
	return coo.ToCSR()
}

// pairs returns the matrix pairs the exactness properties run over:
// a square product A·A and a rectangular chain.
func pairs() map[string][2]*sparse.CSR {
	sq := matgen.Random(60, 480, 1)
	return map[string][2]*sparse.CSR{
		"square":      {sq, sq},
		"rectangular": {randomRect(40, 55, 300, 2), randomRect(55, 30, 260, 3)},
	}
}

// TestMultiplyMatchesDense checks the serial Gustavson kernel against
// a dense triple loop.
func TestMultiplyMatchesDense(t *testing.T) {
	a := randomRect(12, 17, 60, 4)
	b := randomRect(17, 9, 50, 5)
	c, err := spgemm.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([][]float64, a.Rows)
	for i := range dense {
		dense[i] = make([]float64, b.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for pa := a.RowPtr[i]; pa < a.RowPtr[i+1]; pa++ {
			k := a.ColIdx[pa]
			for pb := b.RowPtr[k]; pb < b.RowPtr[k+1]; pb++ {
				dense[i][b.ColIdx[pb]] += a.Val[pa] * b.Val[pb]
			}
		}
	}
	got := 0
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			if math.Abs(c.Val[p]-dense[i][c.ColIdx[p]]) > 1e-12 {
				t.Fatalf("c[%d,%d] = %g, dense %g", i, c.ColIdx[p], c.Val[p], dense[i][c.ColIdx[p]])
			}
			got++
		}
	}
	nz := 0
	for i := range dense {
		for j := range dense[i] {
			if dense[i][j] != 0 {
				nz++
			}
		}
	}
	if got < nz {
		t.Fatalf("sparse product has %d entries, dense has %d nonzero", got, nz)
	}
	if _, err := spgemm.Multiply(a, a); err == nil {
		t.Fatal("non-conforming product accepted")
	}
}

// checkAgreement pins the three-way equality at the heart of the
// package: the model's cutsize-derived Prediction, Measure's analytic
// profile and Execute's realized traffic must agree word for word and
// message for message, and the executed values must match the serial
// product.
func checkAgreement(t *testing.T, name string, asg *spgemm.Assignment, pr spgemm.Prediction, cut int) {
	t.Helper()
	if pr.TotalWords() != cut {
		t.Fatalf("%s: prediction %d words, cutsize %d", name, pr.TotalWords(), cut)
	}
	st, err := spgemm.Measure(asg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpandVolume != pr.ExpandAWords+pr.ExpandBWords || st.FoldVolume != pr.FoldWords {
		t.Fatalf("%s: measured %d/%d words, predicted %d/%d",
			name, st.ExpandVolume, st.FoldVolume, pr.ExpandAWords+pr.ExpandBWords, pr.FoldWords)
	}
	res, err := spgemm.Execute(asg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpandAWords+res.ExpandBWords != st.ExpandVolume || res.FoldWords != st.FoldVolume {
		t.Fatalf("%s: executor moved %d/%d words, measured %d/%d",
			name, res.ExpandAWords+res.ExpandBWords, res.FoldWords, st.ExpandVolume, st.FoldVolume)
	}
	if res.ExpandMessages != st.ExpandMessages || res.FoldMessages != st.FoldMessages {
		t.Fatalf("%s: executor sent %d/%d messages, measured %d/%d",
			name, res.ExpandMessages, res.FoldMessages, st.ExpandMessages, st.FoldMessages)
	}
	want := asg.C
	for p := 0; p < want.NNZ(); p++ {
		if math.Abs(res.C.Val[p]-want.Val[p]) > 1e-9*(1+math.Abs(want.Val[p])) {
			t.Fatalf("%s: executed c value %g at position %d, serial %g", name, res.C.Val[p], p, want.Val[p])
		}
	}
}

// TestFineGrainExactness runs the fine-grain model through both the
// real partitioner and adversarial random partitions on both matrix
// pairs.
func TestFineGrainExactness(t *testing.T) {
	r := rng.New(23)
	for name, pair := range pairs() {
		m, err := spgemm.BuildFineGrain(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		opts := hgpart.DefaultOptions()
		opts.Seed = 9
		p, err := hgpart.PartitionFixed(m.H, 7, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		parts := []*hypergraph.Partition{p}
		for trial := 0; trial < 4; trial++ {
			q := hypergraph.NewPartition(m.H.NumVertices(), 2+trial)
			for v := range q.Parts {
				q.Parts[v] = r.Intn(q.K)
			}
			parts = append(parts, q)
		}
		for _, q := range parts {
			asg, err := m.Decode(q)
			if err != nil {
				t.Fatal(err)
			}
			checkAgreement(t, name, asg, m.Predict(q), q.CutsizeConnectivity(m.H))
		}
	}
}

// TestRowwiseExactness does the same for the 1D rowwise model (square
// operands — the model needs conformal row spaces).
func TestRowwiseExactness(t *testing.T) {
	a := matgen.Random(70, 560, 6)
	b := matgen.Random(70, 500, 7)
	m, err := spgemm.BuildRowwise(a, b)
	if err != nil {
		t.Fatal(err)
	}
	opts := hgpart.DefaultOptions()
	opts.Seed = 4
	p, err := hgpart.PartitionFixed(m.H, 5, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	parts := []*hypergraph.Partition{p}
	for trial := 0; trial < 4; trial++ {
		q := hypergraph.NewPartition(m.H.NumVertices(), 2+trial)
		for v := range q.Parts {
			q.Parts[v] = r.Intn(q.K)
		}
		parts = append(parts, q)
	}
	for _, q := range parts {
		asg, err := m.Decode(q)
		if err != nil {
			t.Fatal(err)
		}
		pr := m.Predict(q)
		if pr.ExpandAWords != 0 || pr.FoldWords != 0 {
			t.Fatalf("rowwise model predicted A/fold traffic %d/%d, want none", pr.ExpandAWords, pr.FoldWords)
		}
		checkAgreement(t, "rowwise", asg, pr, q.CutsizeConnectivity(m.H))
	}
}

// TestRejectsDegenerate pins the error surface.
func TestRejectsDegenerate(t *testing.T) {
	a := randomRect(10, 12, 40, 8)
	if _, err := spgemm.BuildRowwise(a, randomRect(12, 10, 40, 9)); err == nil {
		t.Fatal("rowwise accepted non-square A")
	}
	empty := sparse.NewCOO(5, 5).ToCSR()
	if _, err := spgemm.BuildFineGrain(empty, empty); err != spgemm.ErrEmptyProduct {
		t.Fatalf("empty product: got %v", err)
	}
}

// fineGrainReference builds the elementwise model of C = A·B pin by pin
// through hypergraph.Builder: tasks in Gustavson order, then A nets,
// B nets and C nets, each A or B element a net only when some task
// uses it.
func fineGrainReference(a, b, c *sparse.CSR) *hypergraph.Hypergraph {
	aColCount := make([]int, a.Cols)
	for _, k := range a.ColIdx {
		aColCount[k]++
	}
	nets := 0
	netOfA := make([]int, a.NNZ())
	for p, k := range a.ColIdx {
		if b.RowNNZ(k) > 0 {
			netOfA[p] = nets
			nets++
		}
	}
	netOfB := make([]int, b.NNZ())
	for k := 0; k < b.Rows; k++ {
		for p := b.RowPtr[k]; p < b.RowPtr[k+1]; p++ {
			if aColCount[k] > 0 {
				netOfB[p] = nets
				nets++
			}
		}
	}
	cBase := nets
	tasks, _ := spgemm.NumTasks(a, b)
	bld := hypergraph.NewBuilder(tasks, nets+c.NNZ())
	t := 0
	for i := 0; i < a.Rows; i++ {
		cRow := c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]]
		for pa := a.RowPtr[i]; pa < a.RowPtr[i+1]; pa++ {
			k := a.ColIdx[pa]
			for pb := b.RowPtr[k]; pb < b.RowPtr[k+1]; pb++ {
				bld.AddPin(netOfA[pa], t)
				bld.AddPin(netOfB[pb], t)
				bld.AddPin(cBase+c.RowPtr[i]+slices.Index(cRow, b.ColIdx[pb]), t)
				t++
			}
		}
	}
	return bld.Build()
}

// rowwiseReference builds the 1D rowwise model of C = A·B through
// hypergraph.Builder: row i weighs its flops and pins the nets of the
// B rows it reads, net k costs nnz(B_k*) and pins its consistency row.
func rowwiseReference(a, b *sparse.CSR) *hypergraph.Hypergraph {
	bld := hypergraph.NewBuilder(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		w := 0
		for pa := a.RowPtr[i]; pa < a.RowPtr[i+1]; pa++ {
			w += b.RowNNZ(a.ColIdx[pa])
			bld.AddPin(a.ColIdx[pa], i)
		}
		bld.SetVertexWeight(i, w)
	}
	for k := 0; k < b.Rows; k++ {
		bld.SetNetCost(k, b.RowNNZ(k))
		bld.AddPin(k, k)
	}
	return bld.Build()
}

// TestModelsMatchBuilder checks both SpGEMM models against their
// Builder constructions, net by net, on the square and rectangular
// pairs and on sparse random pairs with empty rows and columns (unused
// A and B elements, repeated consistency pins).
func TestModelsMatchBuilder(t *testing.T) {
	in := pairs()
	r := rng.New(61)
	for trial := 0; trial < 12; trial++ {
		m, k, n := 2+r.Intn(20), 2+r.Intn(20), 2+r.Intn(20)
		if trial%2 == 0 {
			k, n = m, m
		}
		a := randomRect(m, k, 1+r.Intn(m*k/2), uint64(100+trial))
		b := randomRect(k, n, 1+r.Intn(k*n/2), uint64(200+trial))
		in[fmt.Sprintf("random%d", trial)] = [2]*sparse.CSR{a, b}
	}
	for name, pair := range in {
		a, b := pair[0], pair[1]
		fg, err := spgemm.BuildFineGrain(a, b)
		if err == spgemm.ErrEmptyProduct {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := hypergraph.Diff(fg.H, fineGrainReference(a, b, fg.C)); err != nil {
			t.Fatalf("%s fine-grain: %v", name, err)
		}
		if a.Rows != a.Cols {
			continue
		}
		rw, err := spgemm.BuildRowwise(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := hypergraph.Diff(rw.H, rowwiseReference(a, b)); err != nil {
			t.Fatalf("%s rowwise: %v", name, err)
		}
	}
}
