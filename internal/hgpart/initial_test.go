package hgpart

import (
	"hash/fnv"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// growBisectRescan is the reference greedy hypergraph growing: the same
// seed, frontier order, selection rule and fallback as growBisect, but
// every frontier vertex's gain is recomputed from the σ₁ counts at
// every step, and every move offers every pin of every net of the moved
// vertex. growBisect must produce the same sides.
func growBisectRescan(h *hypergraph.Hypergraph, fixedSide []int8, targets [2]float64, r *rng.RNG, side []int8) {
	numV := h.NumVertices()
	clear(side)
	var w1 float64
	for v := 0; v < numV; v++ {
		if fixedSide[v] == 1 {
			side[v] = 1
			w1 += float64(h.VertexWeight(v))
		}
	}
	sigma1 := make([]int, h.NumNets())
	for v := 0; v < numV; v++ {
		if side[v] == 1 {
			for _, n := range h.Nets(v) {
				sigma1[n]++
			}
		}
	}
	inFront := make([]bool, numV)
	var frontier []int
	addFrontier := func(v int) {
		if !inFront[v] && side[v] == 0 && fixedSide[v] != 0 {
			inFront[v] = true
			frontier = append(frontier, v)
		}
	}
	moveTo1 := func(v int) {
		side[v] = 1
		w1 += float64(h.VertexWeight(v))
		for _, n := range h.Nets(v) {
			sigma1[n]++
			for _, u := range h.Pins(n) {
				addFrontier(u)
			}
		}
	}
	if w1 == 0 {
		var free []int
		for v := 0; v < numV; v++ {
			if fixedSide[v] != 0 {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			return
		}
		moveTo1(free[r.Intn(len(free))])
	} else {
		for v := 0; v < numV; v++ {
			if side[v] == 1 {
				for _, n := range h.Nets(v) {
					for _, u := range h.Pins(n) {
						addFrontier(u)
					}
				}
			}
		}
	}
	gainOf := func(v int) int {
		g := 0
		for _, n := range h.Nets(v) {
			if sigma1[n] == h.NetSize(n)-1 {
				g += h.NetCost(n)
			}
			if sigma1[n] == 0 {
				g -= h.NetCost(n)
			}
		}
		return g
	}
	for w1 < targets[1] {
		bestV, bestG := -1, 0
		compact := frontier[:0]
		for _, v := range frontier {
			if side[v] != 0 {
				inFront[v] = false
				continue
			}
			compact = append(compact, v)
			if g := gainOf(v); bestV < 0 || g > bestG {
				bestV, bestG = v, g
			}
		}
		frontier = compact
		if bestV < 0 {
			for v := 0; v < numV; v++ {
				if side[v] == 0 && fixedSide[v] != 0 {
					bestV = v
					break
				}
			}
			if bestV < 0 {
				break
			}
		}
		moveTo1(bestV)
	}
}

// randomGrowCase builds a hypergraph of one to three disconnected
// components with a mix of 2-pin and larger nets, net costs in
// [−2, 4] (zero and negative included) and vertex weights in [0, 4],
// fixes a few vertices to either side, and picks uneven kL:kR targets.
func randomGrowCase(r *rng.RNG) (*hypergraph.Hypergraph, []int8, [2]float64) {
	comps := 1 + r.Intn(3)
	size := 2 + r.Intn(40)
	numV := comps * size
	numN := comps * (1 + r.Intn(2*size))
	b := hypergraph.NewBuilder(numV, numN)
	for n := 0; n < numN; n++ {
		base := (n % comps) * size
		deg := 2
		if r.Intn(3) > 0 {
			deg += r.Intn(5)
		}
		for i := 0; i < deg; i++ {
			b.AddPin(n, base+r.Intn(size))
		}
		b.SetNetCost(n, r.Intn(7)-2)
	}
	// In a quarter of the cases the side-1 fixed vertices weigh
	// nothing, so the seed is random and may be one of them.
	zeroFixed := r.Intn(4) == 0
	fixedSide := make([]int8, numV)
	total := 0
	for v := range fixedSide {
		fixedSide[v] = -1
		switch r.Intn(10) {
		case 0:
			fixedSide[v] = 0
		case 1:
			fixedSide[v] = 1
		}
		w := r.Intn(5)
		if zeroFixed && fixedSide[v] == 1 {
			w = 0
		}
		b.SetVertexWeight(v, w)
		total += w
	}
	kL, kR := 1+r.Intn(5), 1+r.Intn(5)
	t1 := float64(total) * float64(kR) / float64(kL+kR)
	return b.Build(), fixedSide, [2]float64{float64(total) - t1, t1}
}

// TestGrowBisectMatchesRescan checks the incremental gains of
// growBisect against the full-rescan reference on random hypergraphs,
// reusing one scratch throughout as the partitioner does.
func TestGrowBisectMatchesRescan(t *testing.T) {
	r := rng.New(42)
	s := new(scratch)
	for c := 0; c < 400; c++ {
		h, fixedSide, targets := randomGrowCase(r)
		seed := r.Uint64()
		got := make([]int8, h.NumVertices())
		want := make([]int8, h.NumVertices())
		growBisect(h, fixedSide, targets, rng.New(seed), got, s)
		growBisectRescan(h, fixedSide, targets, rng.New(seed), want)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("case %d: vertex %d on side %d, rescan puts it on %d\ngot  %v\nwant %v",
					c, v, got[v], want[v], got, want)
			}
		}
	}
}

// BenchmarkInitialBisect times initialBisect (mlpart.InitTrials GHG and
// random-fill trials, each FM-refined) on the coarsest level of the
// first K = 64 bisection of the nl fine-grain hypergraph at paper size,
// the level the partitioner's initial phase runs on.
func BenchmarkInitialBisect(b *testing.B) {
	spec, err := matgen.Lookup("nl")
	if err != nil {
		b.Fatal(err)
	}
	// FNV-1a of the name is the matrix seed cmd/experiments uses.
	seed := fnv.New64a()
	seed.Write([]byte(spec.Name))
	m, err := core.BuildFineGrain(spec.Scaled(1).Generate(seed.Sum64()))
	if err != nil {
		b.Fatal(err)
	}
	h := m.H
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
	levels := coarsen(ctx, h, fixedSide, bounds.Strict, opts, opts.NewRNG(), s)
	coarsest := levels[len(levels)-1]
	caps := bounds.Caps(coarsest.h.VertexWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := initialBisect(ctx, coarsest.h, coarsest.fixedSide, bounds.Targets, bounds.Strict, caps,
			opts, rng.New(uint64(i)), s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(coarsest.h.NumVertices()), "vertices")
}
