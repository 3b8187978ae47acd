package gpart

import (
	"strings"
	"testing"
	"testing/quick"

	"finegrain/internal/graph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// path builds the path graph 0-1-2-...-(n-1). Optimal K-way edge cut is
// K-1.
func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

// grid builds the rows×cols 2D mesh graph.
func grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i+1 < rows {
				b.AddEdge(id(i, j), id(i+1, j), 1)
			}
			if j+1 < cols {
				b.AddEdge(id(i, j), id(i, j+1), 1)
			}
		}
	}
	return b.Build()
}

func randomG(r *rng.RNG, maxV, maxE int) *graph.Graph {
	numV := 4 + r.Intn(maxV)
	b := graph.NewBuilder(numV)
	for e := 0; e < maxE; e++ {
		b.AddEdge(r.Intn(numV), r.Intn(numV), 1+r.Intn(3))
	}
	return b.Build()
}

func TestPathOptimalBisection(t *testing.T) {
	g := path(500)
	p, err := Partition(g, 2, mlpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if cut := p.EdgeCut(g); cut != 1 {
		t.Fatalf("path bisection cut %d, want 1", cut)
	}
	if !p.Balanced(g, 0.03) {
		t.Fatalf("imbalance %.2f%%", p.Imbalance(g))
	}
}

func TestPathKWay(t *testing.T) {
	g := path(1024)
	for _, k := range []int{4, 8, 16} {
		p, err := Partition(g, k, mlpart.DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if cut := p.EdgeCut(g); cut > 2*(k-1) {
			t.Fatalf("k=%d: cut %d, optimal %d", k, cut, k-1)
		}
	}
}

func TestGridBisectionNearOptimal(t *testing.T) {
	g := grid(24, 24)
	p, err := Partition(g, 2, mlpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Optimal straight cut is 24; allow slack for the heuristic.
	if cut := p.EdgeCut(g); cut > 40 {
		t.Fatalf("grid cut %d, want near 24", cut)
	}
}

func TestNonPowerOfTwoK(t *testing.T) {
	g := path(600)
	for _, k := range []int{3, 5, 6, 11} {
		p, err := Partition(g, k, mlpart.DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := p.Imbalance(g); imb > 3.5 {
			t.Fatalf("k=%d: imbalance %.2f%%", k, imb)
		}
	}
}

func TestBeatsRandom(t *testing.T) {
	r := rng.New(4)
	g := randomG(r, 800, 2500)
	p, err := Partition(g, 8, mlpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	random := graph.NewPartition(g.NumVertices(), 8)
	for v := range random.Parts {
		random.Parts[v] = r.Intn(8)
	}
	if p.EdgeCut(g) >= random.EdgeCut(g) {
		t.Fatalf("partitioner (%d) no better than random (%d)", p.EdgeCut(g), random.EdgeCut(g))
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := randomG(rng.New(6), 400, 1200)
	opts := mlpart.DefaultOptions()
	opts.Seed = 99
	a, err := Partition(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatal("same seed, different partitions")
		}
	}
}

func TestErrors(t *testing.T) {
	g := path(10)
	if _, err := Partition(g, 0, mlpart.DefaultOptions()); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Partition(g, 11, mlpart.DefaultOptions()); err == nil {
		t.Error("K > |V| accepted")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := Partition(empty, 1, mlpart.DefaultOptions()); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestKOne(t *testing.T) {
	g := path(30)
	p, err := Partition(g, 1, mlpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.EdgeCut(g) != 0 {
		t.Fatal("K=1 should cut nothing")
	}
}

func TestWeightedBalance(t *testing.T) {
	r := rng.New(8)
	b := graph.NewBuilder(500)
	for i := 0; i < 499; i++ {
		b.AddEdge(i, i+1, 1)
	}
	for e := 0; e < 600; e++ {
		b.AddEdge(r.Intn(500), r.Intn(500), 1)
	}
	for v := 0; v < 500; v++ {
		w := 1 + r.Intn(8)
		if v%83 == 0 {
			w = 50 + r.Intn(20)
		}
		b.SetVertexWeight(v, w)
	}
	g := b.Build()
	for _, k := range []int{4, 8} {
		p, err := Partition(g, k, mlpart.DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := p.Imbalance(g); imb > 5 {
			t.Fatalf("k=%d: imbalance %.2f%%", k, imb)
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two disjoint paths: bisection should cut zero edges.
	b := graph.NewBuilder(200)
	for i := 0; i < 99; i++ {
		b.AddEdge(i, i+1, 1)
		b.AddEdge(100+i, 100+i+1, 1)
	}
	g := b.Build()
	p, err := Partition(g, 2, mlpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.EdgeCut(g); cut > 1 {
		t.Fatalf("disconnected bisection cut %d, want 0", cut)
	}
}

func TestPropertyValidOutput(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		g := randomG(r, 300, 900)
		k := 2 + r.Intn(6)
		opts := mlpart.DefaultOptions()
		opts.Seed = seed
		p, err := Partition(g, k, opts)
		if k > g.NumVertices() {
			// randomG may build fewer vertices than parts: that input
			// must be refused with the typed message, not partitioned.
			return err != nil && strings.Contains(err.Error(), "exceeds vertex count")
		}
		if err != nil {
			return false
		}
		if p.Validate(g) != nil {
			return false
		}
		if p.Balanced(g, 0.10) {
			return true
		}
		// Integer granularity: W_max = ⌈total/K⌉ is the best any
		// partitioner can do, even when that exceeds 10%.
		w := p.PartWeights(g)
		total, max := 0, 0
		for _, x := range w {
			total += x
			if x > max {
				max = x
			}
		}
		return max <= (total+k-1)/k
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(64).Build()
	p, err := Partition(g, 4, mlpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := p.Imbalance(g); imb > 3.5 {
		t.Fatalf("edgeless imbalance %.2f%%", imb)
	}
}

// TestEmptyRecursionBranch is the standard graph of a 4×4 matrix whose
// only nonzero is a_12: three zero-weight vertices and one edge. A
// bisection can leave one side empty, and the recursion must not
// bisect a 0-vertex subgraph.
func TestEmptyRecursionBranch(t *testing.T) {
	b := graph.NewBuilder(4)
	for v := 0; v < 4; v++ {
		b.SetVertexWeight(v, 0)
	}
	b.SetVertexWeight(1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	for seed := uint64(1); seed <= 5; seed++ {
		opts := mlpart.DefaultOptions()
		opts.Seed = seed
		p, err := Partition(g, 4, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
