package hypergraph

import (
	"slices"
	"testing"
	"testing/quick"

	"finegrain/internal/rng"
)

// paperExample builds the hypergraph of a tiny worked example used
// across several tests: 6 vertices, 4 nets.
//
//	n0 = {0, 1}    n1 = {1, 2, 3}    n2 = {3, 4, 5}    n3 = {0, 5}
func paperExample() *Hypergraph {
	b := NewBuilder(6, 4)
	b.AddPin(0, 0)
	b.AddPin(0, 1)
	b.AddPin(1, 1)
	b.AddPin(1, 2)
	b.AddPin(1, 3)
	b.AddPin(2, 3)
	b.AddPin(2, 4)
	b.AddPin(2, 5)
	b.AddPin(3, 0)
	b.AddPin(3, 5)
	return b.Build()
}

func randomHypergraph(r *rng.RNG, maxV, maxN int) *Hypergraph {
	numV := 2 + r.Intn(maxV)
	numN := 1 + r.Intn(maxN)
	b := NewBuilder(numV, numN)
	for n := 0; n < numN; n++ {
		deg := 1 + r.Intn(6)
		for t := 0; t < deg; t++ {
			b.AddPin(n, r.Intn(numV))
		}
	}
	for v := 0; v < numV; v++ {
		b.SetVertexWeight(v, 1+r.Intn(5))
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	h := paperExample()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 6 || h.NumNets() != 4 || h.NumPins() != 10 {
		t.Fatalf("shape: V=%d N=%d pins=%d", h.NumVertices(), h.NumNets(), h.NumPins())
	}
	if h.NetSize(1) != 3 || h.Degree(3) != 2 || h.Degree(0) != 2 {
		t.Fatal("sizes/degrees wrong")
	}
	pins := h.Pins(2)
	if len(pins) != 3 || pins[0] != 3 || pins[1] != 4 || pins[2] != 5 {
		t.Fatalf("Pins(2) = %v", pins)
	}
	nets := h.Nets(5)
	if len(nets) != 2 || nets[0] != 2 || nets[1] != 3 {
		t.Fatalf("Nets(5) = %v", nets)
	}
}

func TestBuilderDeduplicatesPins(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddPin(0, 1)
	b.AddPin(0, 1)
	b.AddPin(0, 2)
	b.AddPin(0, 1)
	h := b.Build()
	if h.NetSize(0) != 2 {
		t.Fatalf("net size %d after dedup, want 2", h.NetSize(0))
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"net out of range":    func() { NewBuilder(2, 1).AddPin(1, 0) },
		"vertex out of range": func() { NewBuilder(2, 1).AddPin(0, 2) },
		"negative net":        func() { NewBuilder(2, 1).AddPin(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWeightsAndCosts(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddPin(0, 0)
	b.AddPin(1, 1)
	b.SetVertexWeight(0, 5)
	b.SetNetCost(1, 3)
	h := b.Build()
	if h.VertexWeight(0) != 5 || h.VertexWeight(1) != 1 {
		t.Fatal("vertex weights wrong")
	}
	if h.NetCost(1) != 3 || h.NetCost(0) != 1 {
		t.Fatal("net costs wrong")
	}
	if h.TotalVertexWeight() != 7 {
		t.Fatalf("total weight %d, want 7", h.TotalVertexWeight())
	}
}

func TestValidateRandom(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomHypergraph(rng.New(seed), 40, 30)
		return h.Validate() == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPinNetCrossReference(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		h := randomHypergraph(rng.New(seed), 30, 25)
		// Every pin relation appears in both directions.
		for n := 0; n < h.NumNets(); n++ {
			for _, v := range h.Pins(n) {
				found := false
				for _, nn := range h.Nets(v) {
					if nn == n {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionValidate(t *testing.T) {
	h := paperExample()
	p := &Partition{K: 2, Parts: []int{0, 0, 0, 1, 1, 1}}
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
	bad := []*Partition{
		{K: 2, Parts: []int{0, 0, 0, 1, 1}},     // wrong length
		{K: 2, Parts: []int{0, 0, 0, 2, 1, 1}},  // part out of range
		{K: 3, Parts: []int{0, 0, 0, 1, 1, 1}},  // empty part
		{K: 0, Parts: []int{0, 0, 0, 0, 0, 0}},  // K < 1
		{K: 2, Parts: []int{0, 0, 0, -1, 1, 1}}, // negative part
	}
	for i, b := range bad {
		if b.Validate(h) == nil {
			t.Errorf("case %d: invalid partition accepted", i)
		}
	}
}

func TestConnectivityAndCutsize(t *testing.T) {
	h := paperExample()
	p := &Partition{K: 2, Parts: []int{0, 0, 0, 1, 1, 1}}
	// n0={0,1}→{0}, n1={1,2,3}→{0,1}, n2={3,4,5}→{1}, n3={0,5}→{0,1}
	wantLambda := []int{1, 2, 1, 2}
	for n, want := range wantLambda {
		if got := p.Connectivity(h, n); got != want {
			t.Fatalf("λ(n%d) = %d, want %d", n, got, want)
		}
	}
	if cs := p.CutsizeCutNet(h); cs != 2 {
		t.Fatalf("cut-net cutsize %d, want 2", cs)
	}
	if cs := p.CutsizeConnectivity(h); cs != 2 {
		t.Fatalf("connectivity-1 cutsize %d, want 2", cs)
	}
	cut := p.CutNets(h)
	if len(cut) != 2 || cut[0] != 1 || cut[1] != 3 {
		t.Fatalf("cut nets %v", cut)
	}
	set := p.ConnectivitySet(h, 1)
	if len(set) != 2 || set[0] != 0 || set[1] != 1 {
		t.Fatalf("Λ(n1) = %v", set)
	}
}

func TestCutsizeWithCosts(t *testing.T) {
	b := NewBuilder(4, 2)
	b.AddPin(0, 0)
	b.AddPin(0, 1)
	b.AddPin(1, 2)
	b.AddPin(1, 3)
	b.SetNetCost(0, 5)
	b.SetNetCost(1, 7)
	h := b.Build()
	p := &Partition{K: 2, Parts: []int{0, 1, 0, 1}}
	if cs := p.CutsizeCutNet(h); cs != 12 {
		t.Fatalf("cut-net cutsize %d, want 12", cs)
	}
}

func TestConnectivityMinusOneThreeWay(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddPin(0, 0)
	b.AddPin(0, 1)
	b.AddPin(0, 2)
	h := b.Build()
	p := &Partition{K: 3, Parts: []int{0, 1, 2}}
	if cs := p.CutsizeConnectivity(h); cs != 2 {
		t.Fatalf("λ-1 cutsize %d, want 2 for 3-way split of one net", cs)
	}
	if cs := p.CutsizeCutNet(h); cs != 1 {
		t.Fatalf("cut-net cutsize %d, want 1", cs)
	}
}

func TestPartWeightsAndBalance(t *testing.T) {
	b := NewBuilder(4, 1)
	b.AddPin(0, 0)
	b.SetVertexWeight(0, 1)
	b.SetVertexWeight(1, 2)
	b.SetVertexWeight(2, 3)
	b.SetVertexWeight(3, 4)
	h := b.Build()
	p := &Partition{K: 2, Parts: []int{0, 0, 1, 1}}
	w := p.PartWeights(h)
	if w[0] != 3 || w[1] != 7 {
		t.Fatalf("weights %v", w)
	}
	// avg 5, max 7: imbalance 40%
	if imb := p.Imbalance(h); imb < 39.9 || imb > 40.1 {
		t.Fatalf("imbalance %.2f%%, want 40%%", imb)
	}
	if p.Balanced(h, 0.3) {
		t.Fatal("should not be balanced at ε=0.3")
	}
	if !p.Balanced(h, 0.5) {
		t.Fatal("should be balanced at ε=0.5")
	}
}

func TestNetConnectivitiesMatchesPerNet(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		h := randomHypergraph(r, 30, 25)
		k := 2 + r.Intn(4)
		p := NewPartition(h.NumVertices(), k)
		for v := range p.Parts {
			p.Parts[v] = r.Intn(k)
		}
		all := p.NetConnectivities(h)
		for n := 0; n < h.NumNets(); n++ {
			if all[n] != p.Connectivity(h, n) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: connectivity-1 cutsize ≥ cut-net cutsize, with equality iff
// every cut net has λ = 2.
func TestCutsizeOrdering(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		h := randomHypergraph(r, 30, 25)
		k := 2 + r.Intn(5)
		p := NewPartition(h.NumVertices(), k)
		for v := range p.Parts {
			p.Parts[v] = r.Intn(k)
		}
		return p.CutsizeConnectivity(h) >= p.CutsizeCutNet(h)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := &Partition{K: 2, Parts: []int{0, 1}}
	c := p.Clone()
	c.Parts[0] = 1
	if p.Parts[0] != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestSinglePartPartition(t *testing.T) {
	h := paperExample()
	p := NewPartition(6, 1)
	if err := p.Validate(h); err != nil {
		t.Fatal(err)
	}
	if p.CutsizeConnectivity(h) != 0 || p.CutsizeCutNet(h) != 0 {
		t.Fatal("K=1 partition should cut nothing")
	}
	if p.Imbalance(h) != 0 {
		t.Fatal("K=1 imbalance should be 0")
	}
}

func TestZeroWeightVerticesIgnoredInBalance(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddPin(0, 0)
	b.SetVertexWeight(2, 0)
	h := b.Build()
	p := &Partition{K: 2, Parts: []int{0, 1, 1}}
	w := p.PartWeights(h)
	if w[0] != 1 || w[1] != 1 {
		t.Fatalf("weights %v, dummy should add nothing", w)
	}
}

// TestFromCompactMatchesBuilder checks the zero-copy constructor used by
// the partitioner's contraction path: assembling the paper example from
// pre-built CSR-style arrays must validate and be observationally
// identical to the Builder result.
func TestFromCompactMatchesBuilder(t *testing.T) {
	want := paperExample()
	vweight := []int{1, 1, 1, 1, 1, 1}
	netCost := []int{1, 1, 1, 1}
	xpins := []int{0, 2, 5, 8, 10}
	pins := []int{0, 1, 1, 2, 3, 3, 4, 5, 0, 5}
	h := FromCompact(vweight, netCost, xpins, pins)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != want.NumVertices() || h.NumNets() != want.NumNets() || h.NumPins() != want.NumPins() {
		t.Fatalf("shape: V=%d N=%d pins=%d", h.NumVertices(), h.NumNets(), h.NumPins())
	}
	for n := 0; n < want.NumNets(); n++ {
		gp, wp := h.Pins(n), want.Pins(n)
		if len(gp) != len(wp) {
			t.Fatalf("net %d size %d, want %d", n, len(gp), len(wp))
		}
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("net %d pins %v, want %v", n, gp, wp)
			}
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		gn, wn := h.Nets(v), want.Nets(v)
		if len(gn) != len(wn) {
			t.Fatalf("vertex %d degree %d, want %d", v, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("vertex %d nets %v, want %v", v, gn, wn)
			}
		}
	}
}

func TestFromCompactPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on xpins/pins length mismatch")
		}
	}()
	FromCompact([]int{1, 1}, []int{1}, []int{0, 3}, []int{0, 1})
}

// TestResetRebuildsInPlace checks that Reset over a value that held a
// different, larger hypergraph yields the same hypergraph FromCompact
// does, and that a warm value rebuilds without allocating.
func TestResetRebuildsInPlace(t *testing.T) {
	want := paperExample()
	vweight := []int{1, 1, 1, 1, 1, 1}
	netCost := []int{1, 1, 1, 1}
	xpins := []int{0, 2, 5, 8, 10}
	pins := []int{0, 1, 1, 2, 3, 3, 4, 5, 0, 5}
	h := FromCompact([]int{1, 1, 1, 1, 1, 1, 1, 1}, []int{2, 3}, []int{0, 8, 11}, []int{0, 1, 2, 3, 4, 5, 6, 7, 1, 3, 6})
	h.Reset(vweight, netCost, xpins, pins)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != want.NumVertices() || h.NumNets() != want.NumNets() || h.NumPins() != want.NumPins() {
		t.Fatalf("shape: V=%d N=%d pins=%d", h.NumVertices(), h.NumNets(), h.NumPins())
	}
	for n := 0; n < want.NumNets(); n++ {
		if !slices.Equal(h.Pins(n), want.Pins(n)) || h.NetCost(n) != want.NetCost(n) {
			t.Fatalf("net %d pins %v cost %d, want %v cost %d", n, h.Pins(n), h.NetCost(n), want.Pins(n), want.NetCost(n))
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		if !slices.Equal(h.Nets(v), want.Nets(v)) {
			t.Fatalf("vertex %d nets %v, want %v", v, h.Nets(v), want.Nets(v))
		}
	}
	if got := testing.AllocsPerRun(10, func() { h.Reset(vweight, netCost, xpins, pins) }); got != 0 {
		t.Fatalf("warm Reset: %.0f allocs/op, want 0", got)
	}
}

// TestFromPinsMatchesBuilder feeds the same random pin stream — any
// order, repeated pins, empty nets, isolated vertices, and the
// degenerate shapes with no vertices or no nets — to FromPins and to
// Builder, and requires identical hypergraphs.
func TestFromPinsMatchesBuilder(t *testing.T) {
	r := rng.New(29)
	shapes := [][2]int{{0, 0}, {0, 3}, {4, 0}, {1, 1}}
	for trial := 0; trial < 200; trial++ {
		shapes = append(shapes, [2]int{r.Intn(30), r.Intn(30)})
	}
	for trial, shape := range shapes {
		numV, numN := shape[0], shape[1]
		var stream [][2]int
		if numV > 0 {
			for n := 0; n < numN; n++ {
				for d := r.Intn(8); d > 0; d-- {
					// A small vertex range repeats pins within a net.
					stream = append(stream, [2]int{n, r.Intn(min(numV, 1+r.Intn(10)))})
				}
			}
		}
		for i, j := range r.Perm(len(stream)) {
			stream[i], stream[j] = stream[j], stream[i]
		}
		vweight, netCost := make([]int, numV), make([]int, numN)
		b := NewBuilder(numV, numN)
		for v := range vweight {
			vweight[v] = r.Intn(4)
			b.SetVertexWeight(v, vweight[v])
		}
		for n := range netCost {
			netCost[n] = 1 + r.Intn(3)
			b.SetNetCost(n, netCost[n])
		}
		for _, p := range stream {
			b.AddPin(p[0], p[1])
		}
		got := FromPins(vweight, netCost, func(pin func(n, v int)) {
			for _, p := range stream {
				pin(p[0], p[1])
			}
		})
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d (V=%d N=%d): %v", trial, numV, numN, err)
		}
		if err := Diff(got, b.Build()); err != nil {
			t.Fatalf("trial %d (V=%d N=%d): %v", trial, numV, numN, err)
		}
	}
}

func TestFromPinsPanicsOutOfRange(t *testing.T) {
	for name, p := range map[string][2]int{
		"net out of range":    {1, 0},
		"vertex out of range": {0, 2},
		"negative net":        {-1, 0},
		"negative vertex":     {0, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			FromPins([]int{1, 1}, []int{1}, func(pin func(n, v int)) { pin(p[0], p[1]) })
		}()
	}
}
