package core

import (
	"slices"
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// figure1 builds the paper's Figure 1 example: indices h=0, i=1, j=2,
// k=3, l=4 with row net m_i of size 4 and column net n_j of size 3.
func figure1() *sparse.CSR {
	coo := sparse.NewCOO(5, 5)
	coo.Add(1, 0, 1) // a_ih
	coo.Add(1, 1, 1) // a_ii
	coo.Add(1, 2, 1) // a_ij
	coo.Add(1, 3, 1) // a_ik
	coo.Add(2, 2, 1) // a_jj
	coo.Add(4, 2, 1) // a_lj
	coo.Add(0, 0, 1)
	coo.Add(3, 3, 1)
	coo.Add(4, 4, 1)
	return coo.ToCSR()
}

func TestFineGrainShape(t *testing.T) {
	a := figure1()
	fg, err := BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := fg.H.Validate(); err != nil {
		t.Fatal(err)
	}
	// Z = 9 real nonzeros, one dummy (index 3? no: diagonals present
	// are 0,1,2,3,4? a_00, a_11, a_22, a_33, a_44 all present → no
	// dummies).
	if len(fg.DummyDiag) != 0 {
		t.Fatalf("dummies %v, want none (full diagonal)", fg.DummyDiag)
	}
	if fg.H.NumVertices() != 9 {
		t.Fatalf("V = %d, want Z = 9", fg.H.NumVertices())
	}
	if fg.H.NumNets() != 10 {
		t.Fatalf("N = %d, want 2M = 10", fg.H.NumNets())
	}
	// The paper's nets: m_i (row 1) has size 4; n_j (column 2) size 3.
	if got := fg.H.NetSize(fg.RowNet(1)); got != 4 {
		t.Fatalf("|m_i| = %d, want 4", got)
	}
	if got := fg.H.NetSize(fg.ColNet(2)); got != 3 {
		t.Fatalf("|n_j| = %d, want 3", got)
	}
	// Every vertex has exactly two nets (its row and its column).
	for v := 0; v < fg.H.NumVertices(); v++ {
		if fg.H.Degree(v) != 2 {
			t.Fatalf("vertex %d degree %d, want 2", v, fg.H.Degree(v))
		}
	}
	if err := fg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestFineGrainUnitWeights(t *testing.T) {
	a := figure1()
	fg, _ := BuildFineGrain(a)
	for v := 0; v < a.NNZ(); v++ {
		if fg.H.VertexWeight(v) != 1 {
			t.Fatalf("real vertex %d weight %d", v, fg.H.VertexWeight(v))
		}
	}
}

func TestFineGrainDummies(t *testing.T) {
	// Matrix with zero diagonal except a_00.
	a := sparse.FromEntries(3, 3, []sparse.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 0, Val: 1},
	})
	fg, err := BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(fg.DummyDiag) != 2 || fg.DummyDiag[0] != 1 || fg.DummyDiag[1] != 2 {
		t.Fatalf("dummies %v, want [1 2]", fg.DummyDiag)
	}
	if fg.H.NumVertices() != 4+2 {
		t.Fatalf("V = %d, want Z + dummies = 6", fg.H.NumVertices())
	}
	for d := range fg.DummyDiag {
		v := a.NNZ() + d
		if fg.H.VertexWeight(v) != 0 {
			t.Fatalf("dummy %d has weight %d, want 0", v, fg.H.VertexWeight(v))
		}
		if fg.H.Degree(v) != 2 {
			t.Fatalf("dummy %d degree %d, want 2", v, fg.H.Degree(v))
		}
	}
	if err := fg.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Dummy coordinates decode to the diagonal.
	c := fg.VertexCoord(a.NNZ())
	if c.Row != 1 || c.Col != 1 {
		t.Fatalf("dummy coord %v", c)
	}
}

func TestVertexCoord(t *testing.T) {
	a := figure1()
	fg, _ := BuildFineGrain(a)
	// Enumerate CSR order and verify coordinates agree.
	k := 0
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			c := fg.VertexCoord(k)
			if c.Row != i || c.Col != j {
				t.Fatalf("vertex %d coord (%d,%d), want (%d,%d)", k, c.Row, c.Col, i, j)
			}
			k++
		}
	}
}

func TestFineGrainRejectsRectangular(t *testing.T) {
	a := sparse.FromEntries(2, 3, nil)
	if _, err := BuildFineGrain(a); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

func TestDecode2DSymmetricAndValid(t *testing.T) {
	a := figure1()
	fg, _ := BuildFineGrain(a)
	r := rng.New(2)
	p := hypergraph.NewPartition(fg.H.NumVertices(), 3)
	for v := range p.Parts {
		p.Parts[v] = r.Intn(3)
	}
	asg, err := fg.Decode2D(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := asg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !asg.Symmetric() {
		t.Fatal("decoded assignment not symmetric")
	}
	// x_j and y_j follow part[v_jj].
	for j := 0; j < a.Rows; j++ {
		if asg.XOwner[j] != p.Parts[fg.DiagVertex(j)] {
			t.Fatalf("x_%d owner %d, want part of v_jj %d", j, asg.XOwner[j], p.Parts[fg.DiagVertex(j)])
		}
	}
}

func TestDecode2DWrongPartitionLength(t *testing.T) {
	a := figure1()
	fg, _ := BuildFineGrain(a)
	p := hypergraph.NewPartition(3, 2)
	if _, err := fg.Decode2D(p); err == nil {
		t.Fatal("wrong-length partition accepted")
	}
}

func TestColumnNetShape(t *testing.T) {
	a := figure1()
	cn, err := BuildColumnNet(a)
	if err != nil {
		t.Fatal(err)
	}
	if cn.H.NumVertices() != 5 || cn.H.NumNets() != 5 {
		t.Fatalf("shape V=%d N=%d", cn.H.NumVertices(), cn.H.NumNets())
	}
	// Vertex weight = row nnz.
	if cn.H.VertexWeight(1) != 4 {
		t.Fatalf("row 1 weight %d, want 4", cn.H.VertexWeight(1))
	}
	// Column net 2 = rows {1,2,4} (plus consistency pin 2 already there).
	pins := cn.H.Pins(2)
	if len(pins) != 3 || pins[0] != 1 || pins[1] != 2 || pins[2] != 4 {
		t.Fatalf("column net 2 pins %v", pins)
	}
}

func TestStandardGraphCosts(t *testing.T) {
	// a_01 and a_10 both present → cost 2 edge; a_02 only → cost 1.
	a := sparse.FromEntries(3, 3, []sparse.Entry{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 0, Col: 2, Val: 1},
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	sg, err := BuildStandardGraph(a)
	if err != nil {
		t.Fatal(err)
	}
	if sg.G.NumEdges() != 2 {
		t.Fatalf("edges %d, want 2", sg.G.NumEdges())
	}
	to, w := sg.G.Adj(0)
	want := map[int]int{1: 2, 2: 1}
	for i, u := range to {
		if w[i] != want[u] {
			t.Fatalf("edge {0,%d} cost %d, want %d", u, w[i], want[u])
		}
	}
	// Vertex weight = row nnz.
	if sg.G.VertexWeight(0) != 3 {
		t.Fatalf("vertex 0 weight %d, want 3", sg.G.VertexWeight(0))
	}
	// Transpose-only edges are present too.
	a2 := sparse.FromEntries(2, 2, []sparse.Entry{{Row: 1, Col: 0, Val: 1}})
	sg2, _ := BuildStandardGraph(a2)
	if !sg2.G.HasEdge(0, 1) {
		t.Fatal("transpose-direction edge missing")
	}
}

func TestAssignmentLoads(t *testing.T) {
	a := figure1()
	asg := &Assignment{
		K: 2, A: a,
		NonzeroOwner: []int{0, 0, 0, 0, 0, 1, 1, 1, 1},
		XOwner:       []int{0, 0, 0, 1, 1},
		YOwner:       []int{0, 0, 0, 1, 1},
	}
	loads := asg.Loads()
	if loads[0] != 5 || loads[1] != 4 {
		t.Fatalf("loads %v", loads)
	}
	imb := asg.LoadImbalance()
	if imb < 11 || imb > 11.2 { // max 5, avg 4.5 → 11.1%
		t.Fatalf("imbalance %.2f", imb)
	}
}

func TestAssignmentValidate(t *testing.T) {
	a := figure1()
	good := &Assignment{K: 1, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, 5), YOwner: make([]int, 5)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Assignment{
		{K: 0, A: a, NonzeroOwner: make([]int, a.NNZ()), XOwner: make([]int, 5), YOwner: make([]int, 5)},
		{K: 1, A: a, NonzeroOwner: make([]int, 3), XOwner: make([]int, 5), YOwner: make([]int, 5)},
		{K: 1, A: a, NonzeroOwner: make([]int, a.NNZ()), XOwner: make([]int, 4), YOwner: make([]int, 5)},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	over := &Assignment{K: 2, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, 5), YOwner: make([]int, 5)}
	over.NonzeroOwner[0] = 5
	if over.Validate() == nil {
		t.Error("out-of-range owner accepted")
	}
}

// buildFineGrainReference is the fine-grain hypergraph built the
// direct way, one Builder pin per (net, vertex) incidence: the oracle
// for BuildFineGrain's compact construction.
func buildFineGrainReference(a *sparse.CSR) *hypergraph.Hypergraph {
	m, z := a.Rows, a.NNZ()
	present, _ := a.DiagonalPresence()
	var dummies []int
	for j := 0; j < m; j++ {
		if !present[j] {
			dummies = append(dummies, j)
		}
	}
	b := hypergraph.NewBuilder(z+len(dummies), 2*m)
	for i := 0; i < m; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			b.AddPin(i, k)
			b.AddPin(m+a.ColIdx[k], k)
		}
	}
	for d, j := range dummies {
		v := z + d
		b.SetVertexWeight(v, 0)
		b.AddPin(j, v)
		b.AddPin(m+j, v)
	}
	return b.Build()
}

// TestFineGrainMatchesBuilder checks that BuildFineGrain's compact
// arrays equal the Builder-built hypergraph's, pin for pin, net for
// net, weight for weight, on random square matrices with and without
// a full diagonal.
func TestFineGrainMatchesBuilder(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(60)
		fullDiag := trial%2 == 0
		coo := sparse.NewCOO(n, n)
		seen := map[[2]int]bool{}
		add := func(i, j int) {
			if !seen[[2]int{i, j}] {
				seen[[2]int{i, j}] = true
				coo.Add(i, j, 1)
			}
		}
		for e := r.Intn(4 * n); e > 0; e-- {
			add(r.Intn(n), r.Intn(n))
		}
		if fullDiag {
			for i := 0; i < n; i++ {
				add(i, i)
			}
		}
		a := coo.ToCSR()
		fg, err := BuildFineGrain(a)
		if err != nil {
			t.Fatal(err)
		}
		got, want := fg.H, buildFineGrainReference(a)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.NumVertices() != want.NumVertices() || got.NumNets() != want.NumNets() {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
		if fullDiag && len(fg.DummyDiag) != 0 {
			t.Fatalf("trial %d: dummies %v with a full diagonal", trial, fg.DummyDiag)
		}
		for net := 0; net < want.NumNets(); net++ {
			if !slices.Equal(got.Pins(net), want.Pins(net)) || got.NetCost(net) != want.NetCost(net) {
				t.Fatalf("trial %d net %d: pins %v cost %d, want %v cost %d", trial, net,
					got.Pins(net), got.NetCost(net), want.Pins(net), want.NetCost(net))
			}
		}
		for v := 0; v < want.NumVertices(); v++ {
			if !slices.Equal(got.Nets(v), want.Nets(v)) || got.VertexWeight(v) != want.VertexWeight(v) {
				t.Fatalf("trial %d vertex %d: nets %v weight %d, want %v weight %d", trial, v,
					got.Nets(v), got.VertexWeight(v), want.Nets(v), want.VertexWeight(v))
			}
		}
	}
}
