package gpart

import (
	"context"
	"errors"
	"hash/fnv"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/graph"
	"finegrain/internal/matgen"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// growBisectGGP is the reference greedy graph growing (GGP), written on
// the graph and its edge-cut gains: side 1 grows from a random seed by
// best-gain BFS until it reaches its target weight. On the 2-pin nets
// of edgeHypergraph, mlpart.GrowBisect must produce the same sides.
func growBisectGGP(g *graph.Graph, targets [2]float64, r *rng.RNG) []int8 {
	numV := g.NumVertices()
	side := make([]int8, numV)
	var w1 float64
	// gainTo1[v]: Σ weight of edges from v into side 1 minus into side 0.
	gain := make([]int, numV)
	for v := 0; v < numV; v++ {
		_, ws := g.Adj(v)
		for _, x := range ws {
			gain[v] -= x
		}
	}
	inFront := make([]bool, numV)
	var frontier []int
	move := func(v int) {
		side[v] = 1
		w1 += float64(g.VertexWeight(v))
		to, ws := g.Adj(v)
		for i, u := range to {
			gain[u] += 2 * ws[i]
			if side[u] == 0 && !inFront[u] {
				inFront[u] = true
				frontier = append(frontier, u)
			}
		}
	}
	move(r.Intn(numV))
	for w1 < targets[1] {
		bestV, bestG := -1, 0
		compact := frontier[:0]
		for _, v := range frontier {
			if side[v] != 0 {
				inFront[v] = false
				continue
			}
			compact = append(compact, v)
			if bestV < 0 || gain[v] > bestG {
				bestV, bestG = v, gain[v]
			}
		}
		frontier = compact
		if bestV < 0 {
			for v := 0; v < numV; v++ {
				if side[v] == 0 {
					bestV = v
					break
				}
			}
			if bestV < 0 {
				break
			}
		}
		move(bestV)
	}
	return side
}

// randomGrowGraph builds a graph of one to three disconnected
// components plus a few isolated vertices. Half the cases are
// tie-heavy, with unit edge and vertex weights; the rest have edge
// weights in [0, 3] and vertex weights in [0, 4]. The targets split
// the total weight kL:kR with uneven counts.
func randomGrowGraph(r *rng.RNG) (*graph.Graph, [2]float64) {
	comps := 1 + r.Intn(3)
	size := 1 + r.Intn(30)
	isolated := r.Intn(4)
	numV := comps*size + isolated
	unit := r.Intn(2) == 0
	b := graph.NewBuilder(numV)
	for c := 0; c < comps; c++ {
		base := c * size
		for e := r.Intn(3 * size); e > 0; e-- {
			w := 1
			if !unit {
				w = r.Intn(4)
			}
			b.AddEdge(base+r.Intn(size), base+r.Intn(size), w)
		}
	}
	total := 0
	for v := 0; v < numV; v++ {
		w := 1
		if !unit {
			w = r.Intn(5)
		}
		b.SetVertexWeight(v, w)
		total += w
	}
	kL, kR := 1+r.Intn(5), 1+r.Intn(5)
	t1 := float64(total) * float64(kR) / float64(kL+kR)
	return b.Build(), [2]float64{float64(total) - t1, t1}
}

// TestGrowBisectMatchesGGP checks the 2-pin equivalence the graph
// partitioner relies on: mlpart.GrowBisect on the edge hypergraph puts
// every vertex on the side the reference GGP does, from the same seed,
// reusing one scratch throughout as the partitioner does.
func TestGrowBisectMatchesGGP(t *testing.T) {
	r := rng.New(17)
	s := new(scratch)
	opts := mlpart.DefaultOptions()
	for c := 0; c < 300; c++ {
		g, targets := randomGrowGraph(r)
		seed := r.Uint64()
		h := edgeHypergraph(g, s)
		got := make([]int8, g.NumVertices())
		if err := mlpart.GrowBisect(h, s.fixedSide, targets, rng.New(seed), got, &opts, &s.grow); err != nil {
			t.Fatal(err)
		}
		want := growBisectGGP(g, targets, rng.New(seed))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("case %d: vertex %d on side %d, GGP puts it on %d\ngot  %v\nwant %v",
					c, v, got[v], want[v], got, want)
			}
		}
	}
}

// blockDiagonal returns the n × n matrix of n/b dense b × b diagonal
// blocks; b = 1 is the identity.
func blockDiagonal(n, b int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		lo := i / b * b
		for j := lo; j < lo+b; j++ {
			coo.Add(i, j, 1)
		}
	}
	return coo.ToCSR()
}

// standardGraph builds the standard graph model of a.
func standardGraph(t testing.TB, a *sparse.CSR) *graph.Graph {
	t.Helper()
	m, err := core.BuildStandardGraph(a)
	if err != nil {
		t.Fatal(err)
	}
	return m.G
}

// TestGreedyGrowingPollsContext is hgpart's test of the same name for
// the graph partitioner: the 2¹⁴ identity's graph has no edges, so its
// ladder stalls at the input and greedy growing takes thousands of
// fallback moves. A context canceled before the first trial must
// surface from initialBisect after at most one poll interval of moves
// and one poll.
func TestGreedyGrowingPollsContext(t *testing.T) {
	g := standardGraph(t, blockDiagonal(1<<14, 1))
	opts := mlpart.DefaultOptions()
	opts.Normalize()
	ctx := newCountdownCtx(0)
	opts.Ctx = ctx
	bounds := mlpart.NewBounds(g.TotalVertexWeight(), 1, 1, opts.Eps)
	caps := bounds.Caps(g.VertexWeights())
	_, err := initialBisect(g, bounds.Targets, bounds.Strict, caps, opts, opts.NewRNG(), new(scratch))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("initialBisect under a canceled context: %v, want context.Canceled", err)
	}
	if polls := -ctx.left.Load(); polls != 1 {
		t.Fatalf("%d polls before initialBisect returned, want 1", polls)
	}
}

// TestGreedyGrowingWorkLinear bounds the candidates greedy growing
// examines, frontier entries scanned plus fallback cursor steps, by
// 4·(pins + V) of the edge hypergraph, on graphs whose frontier keeps
// running dry: the 2¹⁴ identity (no edges) and the block-diagonal
// matrix of 4 × 4 blocks (4,096 disjoint 4-cliques). A fallback that
// rescans from vertex 0 examines Θ(V²) candidates on both.
func TestGreedyGrowingWorkLinear(t *testing.T) {
	const n = 1 << 14
	for _, b := range []int{1, 4} {
		g := standardGraph(t, blockDiagonal(n, b))
		opts := mlpart.DefaultOptions()
		opts.Normalize()
		bounds := mlpart.NewBounds(g.TotalVertexWeight(), 1, 1, opts.Eps)
		caps := bounds.Caps(g.VertexWeights())
		s := new(scratch)
		if _, err := initialBisect(g, bounds.Targets, bounds.Strict, caps, opts, opts.NewRNG(), s); err != nil {
			t.Fatal(err)
		}
		limit := 4 * (2*g.NumEdges() + g.NumVertices())
		if got := s.grow.Examined(); got > limit {
			t.Errorf("%d×%d blocks: greedy growing examined %d candidates, limit %d", b, b, got, limit)
		}
	}
}

// BenchmarkInitialBisect times initialBisect (mlpart.InitTrials greedy
// growing and random-fill trials, each FM-refined) on the coarsest
// level of the first K = 64 bisection of the nl standard graph at paper
// size, the graph side of hgpart's benchmark of the same name.
func BenchmarkInitialBisect(b *testing.B) {
	spec, err := matgen.Lookup("nl")
	if err != nil {
		b.Fatal(err)
	}
	seed := fnv.New64a()
	seed.Write([]byte(spec.Name))
	g := standardGraph(b, spec.Generate(seed.Sum64()))
	opts := mlpart.DefaultOptions()
	opts.Normalize()
	const k = 64
	bounds := mlpart.NewBounds(g.TotalVertexWeight(), k/2, k/2, mlpart.BisectionEps(opts.Eps, k))
	s := new(scratch)
	levels := coarsen(g, opts, opts.NewRNG(), nil, s)
	coarsest := levels[len(levels)-1].g
	caps := bounds.Caps(coarsest.VertexWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := initialBisect(coarsest, bounds.Targets, bounds.Strict, caps, opts, rng.New(uint64(i)), s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(coarsest.NumVertices()), "vertices")
}
