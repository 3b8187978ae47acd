package hgpart

import (
	"fmt"
	"testing"

	"finegrain/internal/rng"
)

// TestParallelRoundsDeterministic is the house invariant extended to the
// in-bisection round machinery: with parallelThreshold lowered so the
// round-based coarsening and FM paths run on every level, Parts must be
// byte-identical across worker counts, with and without fixed vertices.
// Runs under -race via make ci.
func TestParallelRoundsDeterministic(t *testing.T) {
	h := randomHG(rng.New(101), 1600, 1300)
	fixed := make([]int, h.NumVertices())
	for v := range fixed {
		fixed[v] = -1
		if v%11 == 0 {
			fixed[v] = v % 4
		}
	}
	cases := []struct {
		name  string
		fixed []int
	}{
		{name: "HCC"},
		{name: "HCC-fixed", fixed: fixed},
	}
	const k = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = 7
			opts.parallelThreshold = 64

			var ref []int
			for _, workers := range []int{1, 2, 3, 8} {
				opts.Workers = workers
				p, err := PartitionFixed(h, k, tc.fixed, opts)
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				if err := p.Validate(h); err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = p.Parts
					continue
				}
				for v := range ref {
					if p.Parts[v] != ref[v] {
						t.Fatalf("Parts[%d] differs: Workers=1 gives %d, Workers=%d gives %d",
							v, ref[v], workers, p.Parts[v])
					}
				}
			}
		})
	}
}

// TestParallelRoundsExecuted guards against the round paths silently
// never running: with the threshold lowered, stats must report coarsen
// and FM rounds.
func TestParallelRoundsExecuted(t *testing.T) {
	h := randomHG(rng.New(55), 1500, 1200)
	opts := DefaultOptions()
	opts.Seed = 1
	opts.Workers = 4
	opts.parallelThreshold = 64
	opts.CollectStats = true
	_, stats, err := PartitionStats(h, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CoarsenRounds == 0 {
		t.Fatal("parallelThreshold=64 executed zero parallel coarsening rounds")
	}
	if stats.FMRounds == 0 {
		t.Fatal("parallelThreshold=64 executed zero parallel FM rounds")
	}
}

// TestNonPowerOfTwoImbalance regression-tests the per-bisection ε
// schedule for K not a power of two: the recursion tree is then
// unbalanced (depths differ per leaf), and a wrong per-level ε either
// overshoots the global bound or starves shallow subtrees. The final
// partition must satisfy the global ε for every such K.
func TestNonPowerOfTwoImbalance(t *testing.T) {
	h := randomHG(rng.New(17), 1320, 1100)
	for _, k := range []int{3, 5, 6, 12} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Seed = 9
			p, err := Partition(h, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Balanced(h, opts.Eps) {
				t.Fatalf("K=%d: imbalance %.3f%% exceeds ε=%.0f%%",
					k, p.Imbalance(h), 100*opts.Eps)
			}
		})
	}
}

// TestWorkersAllocParity is the satellite-1 regression guard: extra
// workers must not cost extra allocations per call. Before the pooled
// executor, every spawned run/branch allocated a closure, channel,
// forked trace track, and often a fresh scratch arena, so 8-worker runs
// allocated ~20% more than serial. With parked workers owning their
// arenas and pooled tasks, the steady-state delta must be near zero.
func TestWorkersAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates per sync op")
	}
	h := randomHG(rng.New(21), 1200, 1000)
	const k = 8
	measure := func(workers int) float64 {
		opts := DefaultOptions()
		opts.Seed = 4
		opts.Workers = workers
		opts.parallelThreshold = 128
		// Warm up so worker goroutines, their arenas, and the task pool
		// reach steady state before counting.
		for i := 0; i < 3; i++ {
			if _, err := PartitionFixed(h, k, nil, opts); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := PartitionFixed(h, k, nil, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial := measure(1)
	parallel := measure(8)
	// Tolerate pool churn noise but fail on anything resembling the old
	// per-spawn allocation regime (which added hundreds of allocs).
	slack := serial*0.10 + 64
	if parallel > serial+slack {
		t.Fatalf("Workers=8 allocates %.0f/op vs %.0f/op serial (slack %.0f): extra workers must be ~free",
			parallel, serial, slack)
	}
}
