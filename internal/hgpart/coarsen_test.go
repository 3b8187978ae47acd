package hgpart

import (
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

func TestClusterLegality(t *testing.T) {
	r := rng.New(10)
	b := hypergraph.NewBuilder(400, 300)
	for n := 0; n < 300; n++ {
		for i := 0; i < 2+r.Intn(4); i++ {
			b.AddPin(n, r.Intn(400))
		}
	}
	h := b.Build()
	fixedSide := make([]int8, 400)
	for v := range fixedSide {
		fixedSide[v] = -1
	}
	fixedSide[1] = 0
	fixedSide[2] = 1
	fixedSide[3] = 0

	opts := DefaultOptions()
	opts.normalize()
	rg := new(rung)
	numC := cluster(h, fixedSide, [2]float64{1e18, 1e18}, opts, r, new(scratch), rg)
	cmap := rg.cmap

	// Every vertex mapped, cluster ids in range.
	for v, c := range cmap {
		if c < 0 || c >= numC {
			t.Fatalf("vertex %d cluster %d out of [0,%d)", v, c, numC)
		}
	}
	// Weight cap respected.
	maxClusterW := h.TotalVertexWeight()/opts.coarsenTo + 1
	if maxClusterW < 2 {
		maxClusterW = 2
	}
	cw := make([]int, numC)
	for v, c := range cmap {
		cw[c] += h.VertexWeight(v)
	}
	for c, w := range cw {
		if w > maxClusterW {
			t.Fatalf("cluster %d weight %d exceeds cap %d", c, w, maxClusterW)
		}
	}
	// Vertices fixed to different sides never share a cluster.
	sideOf := make(map[int]int8)
	for v, c := range cmap {
		if fixedSide[v] < 0 {
			continue
		}
		if prev, ok := sideOf[c]; ok && prev != fixedSide[v] {
			t.Fatalf("cluster %d mixes fixed sides", c)
		}
		sideOf[c] = fixedSide[v]
	}
	// Some actual shrinkage happened.
	if numC >= 400 {
		t.Fatal("no clustering occurred")
	}
}

func TestContractDropsSinglePinNets(t *testing.T) {
	b := hypergraph.NewBuilder(4, 2)
	b.AddPin(0, 0)
	b.AddPin(0, 1) // net 0 = {0,1}: collapses to single pin after merge
	b.AddPin(1, 0)
	b.AddPin(1, 2) // net 1 = {0,2}: survives
	h := b.Build()
	cmap := []int{0, 0, 1, 2} // merge 0 and 1
	coarse, _ := contract(h, cmap, 3, new(scratch), new(arenaHG))
	if coarse.NumNets() != 1 {
		t.Fatalf("coarse nets %d, want 1 (single-pin net dropped)", coarse.NumNets())
	}
	if coarse.NumVertices() != 3 {
		t.Fatalf("coarse vertices %d", coarse.NumVertices())
	}
	// Weights summed.
	if coarse.VertexWeight(0) != 2 {
		t.Fatalf("merged weight %d, want 2", coarse.VertexWeight(0))
	}
}

func TestContractMergesIdenticalNets(t *testing.T) {
	b := hypergraph.NewBuilder(4, 3)
	// Nets 0 and 1 become identical after contraction; net 2 differs.
	b.AddPin(0, 0)
	b.AddPin(0, 2)
	b.AddPin(1, 1)
	b.AddPin(1, 2)
	b.AddPin(2, 2)
	b.AddPin(2, 3)
	b.SetNetCost(0, 2)
	b.SetNetCost(1, 3)
	h := b.Build()
	cmap := []int{0, 0, 1, 2} // 0,1 merge → nets 0,1 both = {0,1}
	coarse, _ := contract(h, cmap, 3, new(scratch), new(arenaHG))
	if coarse.NumNets() != 2 {
		t.Fatalf("coarse nets %d, want 2 (identical nets merged)", coarse.NumNets())
	}
	// The merged net carries the summed cost 5.
	found := false
	for n := 0; n < coarse.NumNets(); n++ {
		if coarse.NetCost(n) == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("identical-net cost not summed")
	}
}

func TestCoarsenLadderShrinks(t *testing.T) {
	h := chain(2000)
	fixedSide := make([]int8, 2000)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	opts := DefaultOptions()
	opts.normalize()
	levels := coarsen(bisectCtx{}, h, fixedSide, [2]float64{1e18, 1e18}, nil, opts, rng.New(1), new(scratch))
	if len(levels) < 2 {
		t.Fatal("no coarsening happened on a 2000-vertex chain")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i].h.NumVertices() >= levels[i-1].h.NumVertices() {
			t.Fatalf("level %d did not shrink", i)
		}
		if err := levels[i].h.Validate(); err != nil {
			t.Fatalf("level %d invalid: %v", i, err)
		}
	}
	coarsest := levels[len(levels)-1].h
	if coarsest.NumVertices() > 4*opts.coarsenTo {
		t.Fatalf("coarsest still has %d vertices", coarsest.NumVertices())
	}
	// Total weight is invariant across levels.
	for i := 1; i < len(levels); i++ {
		if levels[i].h.TotalVertexWeight() != h.TotalVertexWeight() {
			t.Fatalf("level %d lost weight", i)
		}
	}
}

// TestCoarsenStallsWhenPinsStopShrinking exercises the second ladder
// stall signal: a level that sheds plenty of vertices while keeping
// nearly every pin must end the ladder, because every later phase would
// pay full price per pin for almost no reduction in work.
//
// Construction: 100 vertex pairs {2i, 2i+1} joined by size-2 "pair"
// nets of cost 100, "cross" nets of cost 1 chaining the odd vertices,
// and 100 dense nets over the even vertices that exceed matchNetLimit
// (so they never steer matching) and dominate the pin count. HCC's
// score makes every vertex absorb its pair partner first, so level 1 is
// exact pair matching: the vertex count halves, every cross net
// survives between distinct pair-clusters, and the dense nets' pins
// survive contraction untouched (no cluster ever holds two even
// vertices — an even's only matchable net is its pair net, and the
// weight cap blocks multi-pair chains). Net result: ≥10% vertex
// shrinkage and <5% pin shrinkage, while the surviving cross nets would
// let the ladder keep halving — only the pin check can stop it here.
func TestCoarsenStallsWhenPinsStopShrinking(t *testing.T) {
	const pairs = 100
	numV := 2 * pairs
	numN := pairs + (pairs - 1) + pairs
	b := hypergraph.NewBuilder(numV, numN)
	net := 0
	for i := 0; i < pairs; i++ { // pair nets {2i, 2i+1}
		b.AddPin(net, 2*i)
		b.AddPin(net, 2*i+1)
		b.SetNetCost(net, 100)
		net++
	}
	for i := 0; i+1 < pairs; i++ { // cross nets {2i+1, 2i+3}
		b.AddPin(net, 2*i+1)
		b.AddPin(net, 2*i+3)
		net++
	}
	for bn := 0; bn < pairs; bn++ { // dense nets: all evens except 2*bn
		for i := 0; i < pairs; i++ {
			if i != bn {
				b.AddPin(net, 2*i)
			}
		}
		net++
	}
	for v := 0; v < numV; v += 2 {
		b.SetVertexWeight(v, 5)
	}
	h := b.Build()
	fixedSide := make([]int8, numV)
	for i := range fixedSide {
		fixedSide[i] = -1
	}

	opts := DefaultOptions()
	opts.coarsenTo = 54 // cluster cap 600/54+1 = 12: pair merges (6) and pair-cluster merges (12) fit
	opts.matchNetLimit = 10
	opts.normalize()
	levels := coarsen(bisectCtx{}, h, fixedSide, [2]float64{1e18, 1e18}, nil, opts, rng.New(5), new(scratch))

	if len(levels) != 2 {
		t.Fatalf("ladder has %d levels, want 2 (stop after the first pin-stalled level)", len(levels))
	}
	coarse := levels[1].h
	if coarse.NumVertices() >= numV*9/10 {
		t.Fatalf("vertex shrinkage stalled first (%d of %d): construction broken", coarse.NumVertices(), numV)
	}
	// The coarse level kept >95% of the compact pins — the condition the
	// ladder must now stop on.
	if coarse.NumPins()*20 <= h.NumPins()*19 {
		t.Fatalf("pins shrank too much (%d -> %d): construction no longer triggers the stall",
			h.NumPins(), coarse.NumPins())
	}
}

func TestMatchNetLimitSkipsDenseNets(t *testing.T) {
	// One giant net over all vertices plus a chain; with the limit
	// below the giant net's size, clustering must still proceed via
	// the chain nets.
	n := 500
	b := hypergraph.NewBuilder(n, n)
	for v := 0; v < n; v++ {
		b.AddPin(0, v)
	}
	for i := 0; i < n-1; i++ {
		b.AddPin(1+i, i)
		b.AddPin(1+i, i+1)
	}
	h := b.Build()
	fixedSide := make([]int8, n)
	for i := range fixedSide {
		fixedSide[i] = -1
	}
	opts := DefaultOptions()
	opts.matchNetLimit = 10
	opts.normalize()
	numC := cluster(h, fixedSide, [2]float64{1e18, 1e18}, opts, rng.New(3), new(scratch), new(rung))
	if numC >= n*9/10 {
		t.Fatalf("clustering stalled: %d clusters of %d vertices", numC, n)
	}
}

// TestWarmScratchAllocatesOnlyOutputs pins that every buffer of
// cluster, contract, inducedSide and inheritLadder is stored back: once
// the arena and its rungs are warm, a call allocates nothing. cluster's
// cmap lives in the level's rung, contract's coarse hypergraph in the
// next rung, and inducedSide's sub-hypergraph and id map and
// inheritLadder's maps in the child storage.
func TestWarmScratchAllocatesOnlyOutputs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync op")
	}
	h := randomHG(rng.New(5), 600, 500)
	opts := DefaultOptions()
	opts.normalize()
	fixedSide := make([]int8, h.NumVertices())
	side := make([]int8, h.NumVertices())
	ids := make([]int, h.NumVertices())
	for v := range fixedSide {
		fixedSide[v] = -1
		side[v] = int8(v % 2)
		ids[v] = v
	}
	fixedCap := [2]float64{1e18, 1e18}
	r := rng.New(6)
	s := new(scratch)
	fine, coarse := s.rungAt(0), s.rungAt(1)
	numC := cluster(h, fixedSide, fixedCap, opts, r, s, fine)
	contract(h, fine.cmap, numC, s, &coarse.arenaHG)
	for want := int8(0); want < 2; want++ {
		inducedSide(h, ids, side, want, s, s.childAt(1, want))
	}
	// contract's input must not change between runs: cluster the same
	// hypergraph into a second rung for the timed clustering calls.
	spare := s.rungAt(2)
	cluster(h, fixedSide, fixedCap, opts, r, s, spare)
	// A whole ladder, on its own arena, for the derivation to restrict.
	small := opts
	small.coarsenTo = 10
	levels := coarsen(bisectCtx{}, h, fixedSide, fixedCap, nil, small, r, new(scratch))
	if len(levels) < 3 {
		t.Fatalf("ladder of %d levels: fixture too small", len(levels))
	}
	for want := int8(0); want < 2; want++ {
		inheritLadder(levels, side, want, 1, s, &s.childAt(1, want).inh)
	}

	for _, c := range []struct {
		name string
		call func()
	}{
		{"cluster", func() { cluster(h, fixedSide, fixedCap, opts, r, s, spare) }},
		{"contract", func() { contract(h, fine.cmap, numC, s, &coarse.arenaHG) }},
		{"inducedSide", func() { inducedSide(h, ids, side, 1, s, s.childAt(1, 1)) }},
		{"inheritLadder", func() { inheritLadder(levels, side, 1, 1, s, &s.childAt(1, 1).inh) }},
	} {
		if got := testing.AllocsPerRun(5, c.call); got != 0 {
			t.Errorf("%s on a warm scratch: %.0f allocs/op, want 0", c.name, got)
		}
	}
}

// scoreCandidatesReference is HCC candidate scoring by the rule of the
// cmap of −1 for an unclustered vertex: skip v itself, key an
// unclustered neighbor u as keyBase + u and a clustered one as its
// cluster, and sum each key's increments in a map. It returns the keys
// in first-encounter order with their scores.
func scoreCandidatesReference(h *hypergraph.Hypergraph, netInc []float64, cmap []int, keyBase, v int) ([]int, []float64) {
	var keys []int
	score := map[int]float64{}
	for _, net := range h.Nets(v) {
		inc := netInc[net]
		if inc == 0 {
			continue
		}
		for _, u := range h.Pins(net) {
			if u == v {
				continue
			}
			key := keyBase + u
			if cmap[u] >= 0 {
				key = cmap[u]
			}
			if _, seen := score[key]; !seen {
				keys = append(keys, key)
			}
			score[key] += inc
		}
	}
	scores := make([]float64, len(keys))
	for i, key := range keys {
		scores[i] = score[key]
	}
	return keys, scores
}

// TestScoreCandidatesMatchesReference checks scoreCandidates, which
// reads keys straight from a key-valued cmap and stamps v's own slot
// instead of testing u == v, against the reference rule: same
// candidates in the same order with == scores. The hypergraphs repeat
// vertices across nets, leave some vertices without nets, and skip some
// nets by a zero increment; the clusterings come from random joins, and
// one slot table and epoch serve every case, as a scratch arena does.
func TestScoreCandidatesMatchesReference(t *testing.T) {
	r := rng.New(77)
	var slots []candSlot
	epoch := 0
	var cands []int
	for c := 0; c < 200; c++ {
		numV := 1 + r.Intn(60)
		numN := r.Intn(40)
		b := hypergraph.NewBuilder(numV, numN)
		// Pins come from the lower two thirds of the ids, so the top
		// third has degree 0.
		span := max(1, 2*numV/3)
		for n := 0; n < numN; n++ {
			for i := 0; i < 1+r.Intn(8); i++ {
				b.AddPin(n, r.Intn(span))
			}
			b.SetNetCost(n, 1+r.Intn(3))
		}
		h := b.Build()
		netInc := make([]float64, numN)
		for n := range netInc {
			if r.Intn(4) > 0 {
				netInc[n] = float64(1+r.Intn(5)) / float64(1+r.Intn(7))
			}
		}
		fixedSide := make([]int8, numV)
		for v := range fixedSide {
			fixedSide[v] = -1
		}
		opts := DefaultOptions()
		opts.coarsenTo = 1
		opts.normalize()
		m, _ := newMergeRule(h, fixedSide, [2]float64{1e18, 1e18}, opts)
		cmap := unclusteredKeys(new(rung), numV)
		var clusters []clusterMeta
		for j := r.Intn(numV); j > 0; j-- {
			v := r.Intn(numV)
			if cmap[v] < numV {
				continue
			}
			key := cmap[r.Intn(numV)]
			if key == cmap[v] {
				continue
			}
			clusters = m.join(cmap, clusters, v, key, h.VertexWeight(v), -1)
		}
		ref := make([]int, numV)
		for v, key := range cmap {
			ref[v] = -1
			if key < numV {
				ref[v] = key
			}
		}

		slots = mlpart.Grow(slots, 2*numV)
		for v := 0; v < numV; v++ {
			if cmap[v] < numV {
				continue
			}
			epoch++
			cands = scoreCandidates(h, netInc, cmap, v, slots, epoch, cands)
			wantKeys, wantScores := scoreCandidatesReference(h, netInc, ref, numV, v)
			if len(cands) != len(wantKeys) {
				t.Fatalf("case %d vertex %d: candidates %v, want %v", c, v, cands, wantKeys)
			}
			for i, key := range cands {
				if key != wantKeys[i] || slots[key].score != wantScores[i] {
					t.Fatalf("case %d vertex %d: candidate %d is key %d score %v, want key %d score %v",
						c, v, i, key, slots[key].score, wantKeys[i], wantScores[i])
				}
			}
		}
	}
}

// BenchmarkCoarsen times coarsen, the whole level ladder, for the first
// K = 64 bisection of the finan512 fine-grain hypergraph at paper size,
// Workers 1: the largest top level of the pipeline benchmark's matrices,
// clustered by the round path.
func BenchmarkCoarsen(b *testing.B) {
	h := fineGrainFixture(b, "finan512", 1)
	opts := DefaultOptions()
	opts.normalize()
	c, s := sched.Begin(1, nil)
	defer c.End()
	ctx := bisectCtx{call: c}
	const k = 64
	bounds := mlpart.NewBounds(h.TotalVertexWeight(), k/2, k/2, mlpart.BisectionEps(opts.Eps, k))
	fixedSide := make([]int8, h.NumVertices())
	for v := range fixedSide {
		fixedSide[v] = -1
	}
	b.ReportAllocs()
	b.ResetTimer()
	var levels []*level
	for i := 0; i < b.N; i++ {
		levels = coarsen(ctx, h, fixedSide, bounds.Strict, nil, opts, opts.NewRNG(), s)
	}
	b.ReportMetric(float64(len(levels)), "levels")
}

// BenchmarkPartitionTree times Partition, the whole bisection tree, of
// the finan512 fine-grain hypergraph at paper size, K = 64, Workers 1:
// the top bisection BenchmarkCoarsen times, plus the 62 below it, whose
// coarsening ladders start from the levels their parents inherit.
func BenchmarkPartitionTree(b *testing.B) {
	h := fineGrainFixture(b, "finan512", 1)
	opts := DefaultOptions()
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(h, 64, opts); err != nil {
			b.Fatal(err)
		}
	}
}
