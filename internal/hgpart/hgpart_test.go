package hgpart

import (
	"testing"
	"testing/quick"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// chain builds the path hypergraph: net i = {i, i+1}. Its optimal K-way
// connectivity−1 cutsize is K−1.
func chain(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(n, n-1)
	for i := 0; i < n-1; i++ {
		b.AddPin(i, i)
		b.AddPin(i, i+1)
	}
	return b.Build()
}

func randomHG(r *rng.RNG, numV, numN int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(numV, numN)
	for n := 0; n < numN; n++ {
		deg := 2 + r.Intn(5)
		for t := 0; t < deg; t++ {
			b.AddPin(n, r.Intn(numV))
		}
	}
	return b.Build()
}

func TestChainOptimalBisection(t *testing.T) {
	h := chain(400)
	p, err := Partition(h, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
	if cut := p.CutsizeConnectivity(h); cut != 1 {
		t.Fatalf("chain bisection cut %d, want optimal 1", cut)
	}
	if !p.Balanced(h, 0.03) {
		t.Fatalf("bisection imbalance %.2f%%", p.Imbalance(h))
	}
}

func TestChainKWayNearOptimal(t *testing.T) {
	h := chain(1024)
	for _, k := range []int{4, 8, 16} {
		p, err := Partition(h, k, DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		cut := p.CutsizeConnectivity(h)
		if cut > 2*(k-1) {
			t.Fatalf("k=%d: cut %d, optimal %d (allowing 2x)", k, cut, k-1)
		}
		if imb := p.Imbalance(h); imb > 3.5 {
			t.Fatalf("k=%d: imbalance %.2f%%", k, imb)
		}
	}
}

func TestNonPowerOfTwoK(t *testing.T) {
	h := chain(700)
	for _, k := range []int{3, 5, 7, 12} {
		p, err := Partition(h, k, DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := p.Validate(h); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if cut := p.CutsizeConnectivity(h); cut > 3*(k-1) {
			t.Fatalf("k=%d: cut %d too high", k, cut)
		}
	}
}

func TestBeatsRandomPartition(t *testing.T) {
	r := rng.New(5)
	h := randomHG(r, 1500, 1200)
	k := 8
	p, err := Partition(h, k, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	random := hypergraph.NewPartition(h.NumVertices(), k)
	for v := range random.Parts {
		random.Parts[v] = r.Intn(k)
	}
	if p.CutsizeConnectivity(h) >= random.CutsizeConnectivity(h) {
		t.Fatalf("partitioner (%d) no better than random (%d)",
			p.CutsizeConnectivity(h), random.CutsizeConnectivity(h))
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	h := randomHG(rng.New(9), 500, 400)
	opts := DefaultOptions()
	opts.Seed = 1234
	a, err := Partition(h, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(h, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestDifferentSeedsExplore(t *testing.T) {
	h := randomHG(rng.New(9), 500, 400)
	o1 := DefaultOptions()
	o1.Seed = 1
	o2 := DefaultOptions()
	o2.Seed = 2
	a, _ := Partition(h, 4, o1)
	b, _ := Partition(h, 4, o2)
	same := true
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical partitions (suspicious)")
	}
}

func TestKOne(t *testing.T) {
	h := chain(50)
	p, err := Partition(h, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.CutsizeConnectivity(h) != 0 {
		t.Fatal("K=1 must cut nothing")
	}
}

func TestKEqualsNumVertices(t *testing.T) {
	h := chain(16)
	p, err := Partition(h, 16, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	h := chain(10)
	if _, err := Partition(h, 0, DefaultOptions()); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Partition(h, 11, DefaultOptions()); err == nil {
		t.Error("K > |V| accepted")
	}
	if _, err := PartitionFixed(h, 2, []int{0}, DefaultOptions()); err == nil {
		t.Error("short fixed slice accepted")
	}
	bad := make([]int, 10)
	bad[3] = 5
	if _, err := PartitionFixed(h, 2, bad, DefaultOptions()); err == nil {
		t.Error("fixed part out of range accepted")
	}
	empty := hypergraph.NewBuilder(0, 0).Build()
	if _, err := Partition(empty, 1, DefaultOptions()); err == nil {
		t.Error("empty hypergraph accepted")
	}
}

func TestFixedVerticesHonored(t *testing.T) {
	h := chain(200)
	fixed := make([]int, 200)
	for i := range fixed {
		fixed[i] = -1
	}
	fixed[0] = 3
	fixed[50] = 1
	fixed[199] = 0
	p, err := PartitionFixed(h, 4, fixed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[int]int{0: 3, 50: 1, 199: 0} {
		if p.Parts[v] != want {
			t.Fatalf("fixed vertex %d in part %d, want %d", v, p.Parts[v], want)
		}
	}
}

func TestFixedVerticesManyHonored(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		h := randomHG(r, 300, 250)
		k := 2 + r.Intn(4)
		fixed := make([]int, h.NumVertices())
		want := map[int]int{}
		for v := range fixed {
			fixed[v] = -1
			if r.Intn(10) == 0 {
				fixed[v] = r.Intn(k)
				want[v] = fixed[v]
			}
		}
		opts := DefaultOptions()
		opts.Seed = seed
		p, err := PartitionFixed(h, k, fixed, opts)
		if err != nil {
			// Heavily constrained instances may be infeasible; that is
			// a legal outcome, not a property violation.
			return true
		}
		for v, w := range want {
			if p.Parts[v] != w {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedVerticesBalance(t *testing.T) {
	r := rng.New(17)
	b := hypergraph.NewBuilder(600, 500)
	for n := 0; n < 500; n++ {
		for t := 0; t < 2+r.Intn(4); t++ {
			b.AddPin(n, r.Intn(600))
		}
	}
	for v := 0; v < 600; v++ {
		w := 1 + r.Intn(10)
		if v%97 == 0 {
			w = 60 + r.Intn(30) // heavy vertices stress the balancer
		}
		b.SetVertexWeight(v, w)
	}
	h := b.Build()
	for _, k := range []int{4, 8} {
		p, err := Partition(h, k, DefaultOptions())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := p.Imbalance(h); imb > 5 {
			t.Fatalf("k=%d: imbalance %.2f%% with heavy vertices", k, imb)
		}
	}
}

func TestPropertyValidOutput(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		h := randomHG(r, 100+r.Intn(400), 80+r.Intn(300))
		k := 2 + r.Intn(6)
		opts := DefaultOptions()
		opts.Seed = seed
		p, err := Partition(h, k, opts)
		if err != nil {
			return false
		}
		if p.Validate(h) != nil {
			return false
		}
		if p.Balanced(h, 0.10) {
			return true
		}
		// Integer granularity: W_max = ⌈total/K⌉ is the best any
		// partitioner can do, even when that exceeds 10%.
		w := p.PartWeights(h)
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

func TestZeroWeightDummiesAllowed(t *testing.T) {
	// Mimics fine-grain dummies: zero-weight vertices pinned to nets.
	b := hypergraph.NewBuilder(100, 50)
	r := rng.New(3)
	for n := 0; n < 50; n++ {
		b.AddPin(n, r.Intn(90))
		b.AddPin(n, 90+n%10) // dummy pin
	}
	for v := 90; v < 100; v++ {
		b.SetVertexWeight(v, 0)
	}
	h := b.Build()
	p, err := Partition(h, 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestStarHypergraphSplit(t *testing.T) {
	// One giant net over everything plus pairwise nets: the giant net
	// must be cut, pairwise ones mostly kept.
	n := 200
	b := hypergraph.NewBuilder(n, 1+n/2)
	for v := 0; v < n; v++ {
		b.AddPin(0, v)
	}
	for i := 0; i < n/2; i++ {
		b.AddPin(1+i, 2*i)
		b.AddPin(1+i, 2*i+1)
	}
	h := b.Build()
	p, err := Partition(h, 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: giant net λ=4 → 3; all pair nets internal → total 3.
	if cut := p.CutsizeConnectivity(h); cut > 6 {
		t.Fatalf("star cut %d, want near 3", cut)
	}
}
