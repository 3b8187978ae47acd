package hgpart

import (
	"slices"
	"sync"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
)

type modelCase struct {
	name  string
	h     *hypergraph.Hypergraph
	fixed []int
	eps   float64
}

// testModels builds the three hypergraph flavors the partitioner is used
// with in this repo: the fine-grain 2D model, the 1D column-net model,
// and the fine-grain model with a subset of vertices pre-assigned to
// checkerboard grid cells (the constrained variant).
func testModels(t testing.TB) []modelCase {
	t.Helper()
	a := matgen.Grid5Point(40, 40)

	fg, err := core.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := core.BuildColumnNet(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := core.BuildCheckerboard(a, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pin every 7th nonzero to its checkerboard cell; the partitioner
	// must honor these while balancing the rest.
	fixed := make([]int, a.NNZ())
	for i := range fixed {
		fixed[i] = -1
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if k%7 == 0 {
				fixed[k] = cb.GridCell(cb.RowBlock(i), cb.ColBlock(a.ColIdx[k]))
			}
		}
	}

	return []modelCase{
		{name: "finegrain", h: fg.H},
		{name: "columnnet", h: cn.H},
		{name: "checkerboard-fixed", h: fg.H, fixed: fixed},
	}
}

// TestWorkersDeterministic is the core guarantee of the parallel
// partitioner: for a given Seed, Parts is byte-identical no matter how
// many workers execute the recursion branches.
func TestWorkersDeterministic(t *testing.T) {
	const k = 8
	for _, tc := range testModels(t) {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = 42
			if tc.eps > 0 {
				opts.Eps = tc.eps
			}

			opts.Workers = 1
			serial, err := PartitionFixed(tc.h, k, tc.fixed, opts)
			if err != nil {
				t.Fatal(err)
			}

			opts.Workers = 8
			parallel, err := PartitionFixed(tc.h, k, tc.fixed, opts)
			if err != nil {
				t.Fatal(err)
			}

			if len(serial.Parts) != len(parallel.Parts) {
				t.Fatalf("length mismatch: %d vs %d", len(serial.Parts), len(parallel.Parts))
			}
			for v := range serial.Parts {
				if serial.Parts[v] != parallel.Parts[v] {
					t.Fatalf("Parts[%d] differs: Workers=1 gives %d, Workers=8 gives %d",
						v, serial.Parts[v], parallel.Parts[v])
				}
			}
			if tc.fixed != nil {
				for v, f := range tc.fixed {
					if f >= 0 && parallel.Parts[v] != f {
						t.Fatalf("fixed vertex %d assigned to %d, want %d", v, parallel.Parts[v], f)
					}
				}
			}
		})
	}
}

// TestConcurrentCallsDeterministic runs the model cases as concurrent
// calls at Workers 4, twice each, and checks every result against the
// serial one. The calls share the scheduler's arena free list, so
// arenas holding one call's ladder and bisection children pass to the
// next call while other calls still read theirs; under -race this
// checks that no arena-held hypergraph is reached by two calls.
func TestConcurrentCallsDeterministic(t *testing.T) {
	const k = 8
	cases := testModels(t)
	want := make([][]int, len(cases))
	for i, tc := range cases {
		opts := DefaultOptions()
		opts.Workers = 1
		p, err := PartitionFixed(tc.h, k, tc.fixed, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Parts
	}
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func(i int, tc modelCase) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				opts := DefaultOptions()
				opts.Workers = 4
				p, err := PartitionFixed(tc.h, k, tc.fixed, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(p.Parts, want[i]) {
					t.Errorf("%s: concurrent call %d differs from the serial partition", tc.name, rep)
				}
			}
		}(i, tc)
	}
	wg.Wait()
}

// TestStatsCollected checks the CollectStats path: the record must be
// populated across all phases and collecting it must not perturb the
// partition.
func TestStatsCollected(t *testing.T) {
	a := matgen.Grid5Point(40, 40)
	fg, err := core.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8

	opts := DefaultOptions()
	opts.Seed = 3
	opts.Workers = 4

	plain, err := Partition(fg.H, k, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.CollectStats = true
	p, stats, err := PartitionStats(fg.H, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("CollectStats=true returned nil stats")
	}
	if stats.Bisections < k-1 {
		t.Fatalf("Bisections = %d, want >= %d", stats.Bisections, k-1)
	}
	if len(stats.Levels) == 0 {
		t.Fatal("no coarsening levels recorded")
	}
	if stats.Levels[0].Vertices != fg.H.NumVertices() {
		t.Fatalf("level 0 has %d vertices, want %d", stats.Levels[0].Vertices, fg.H.NumVertices())
	}
	if stats.FMPasses == 0 {
		t.Fatal("no FM passes recorded")
	}
	if stats.InitialCut <= 0 {
		t.Fatalf("InitialCut = %d, want > 0", stats.InitialCut)
	}
	if stats.TotalTime <= 0 || stats.CoarsenTime <= 0 || stats.RefineTime <= 0 {
		t.Fatalf("phase times not recorded: total=%v coarsen=%v refine=%v",
			stats.TotalTime, stats.CoarsenTime, stats.RefineTime)
	}
	if stats.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", stats.Workers)
	}
	if stats.Utilization <= 0 || stats.Utilization > 1.0+1e-9 {
		t.Fatalf("Utilization = %v out of range", stats.Utilization)
	}
	if s := stats.String(); s == "" {
		t.Fatal("Stats.String() empty")
	}

	for v := range plain.Parts {
		if plain.Parts[v] != p.Parts[v] {
			t.Fatalf("collecting stats changed the partition at vertex %d", v)
		}
	}
}
