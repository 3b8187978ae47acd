//go:build !race

// The race detector's instrumentation allocates per sync operation,
// which invalidates allocation-parity measurements.

package gpart

import (
	"testing"

	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// TestWorkersAllocParity is hgpart's guard of the same name for the
// graph partitioner: extra workers must not cost extra allocations per
// call. Every worker slot's scratch comes from the partitioner's free
// list, so once warm a Workers 8 call allocates what a serial one does:
// the induced subgraphs, the coarse levels' growth and the result.
func TestWorkersAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	g := randomG(rng.New(21), 20000, 80000)
	const k = 64
	measure := func(workers int) float64 {
		opts := mlpart.DefaultOptions()
		opts.Seed = 4
		opts.Workers = workers
		// Warm up so executor workers, the scratch free list and the
		// task pool reach steady state before counting.
		for i := 0; i < 3; i++ {
			if _, err := Partition(g, k, opts); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Partition(g, k, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial := measure(1)
	parallel := measure(8)
	// A fresh slot scratch regrows its buffers and coarse-level ladder
	// at a few dozen allocations per slot, so a flat slack separates it
	// from the free list's occasional regrowth of a reused arena.
	const slack = 64
	if parallel > serial+slack {
		t.Fatalf("Workers=8 allocates %.0f/op vs %.0f/op serial (slack %d): extra workers must be ~free",
			parallel, serial, slack)
	}
}

// TestWarmInducedSideAllocatesNothing pins that inducedSide writes
// both sides into child storage: once the arena and its children are
// warm, building a side allocates nothing.
func TestWarmInducedSideAllocatesNothing(t *testing.T) {
	r := rng.New(8)
	g := randomG(r, 2000, 8000)
	numV := g.NumVertices()
	ids := make([]int, numV)
	side := make([]int8, numV)
	for v := range ids {
		ids[v] = v
		side[v] = int8(r.Intn(2))
	}
	s := new(scratch)
	for want := int8(0); want < 2; want++ {
		inducedSide(g, ids, side, want, s, s.childAt(1, want))
	}
	for want := int8(0); want < 2; want++ {
		got := testing.AllocsPerRun(5, func() { inducedSide(g, ids, side, want, s, s.childAt(1, want)) })
		if got != 0 {
			t.Errorf("inducedSide side %d on a warm arena: %.0f allocs/op, want 0", want, got)
		}
	}
}
