package par_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/kernel"
	"finegrain/internal/matgen"
	"finegrain/internal/par"
	"finegrain/internal/rng"
	"finegrain/internal/spmv"
)

// countTask records which shards ran and how many ran inline.
type countTask struct {
	g      par.Group
	ran    []atomic.Int32
	inline atomic.Int32
}

func (c *countTask) Run(shard int, w *par.Worker) {
	c.ran[shard].Add(1)
	if w == nil {
		c.inline.Add(1)
	}
}

// TestRunBarrier: every shard runs exactly once, shard 0 inline on the
// caller, and the group is reusable across barriers.
func TestRunBarrier(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7} {
		c := &countTask{ran: make([]atomic.Int32, max(n, 1))}
		for round := 1; round <= 3; round++ {
			c.g.Run(n, c)
			for i := range c.ran {
				if got := c.ran[i].Load(); got != int32(round) {
					t.Fatalf("n=%d round %d: shard %d ran %d times", n, round, i, got)
				}
			}
			if got := c.inline.Load(); got != int32(round) {
				t.Fatalf("n=%d round %d: %d inline runs, want shard 0 inline once per round", n, round, got)
			}
		}
	}
}

// TestGoWaitSteadyStateNoAllocs: once a worker is parked, submitting
// to it and joining allocates nothing.
func TestGoWaitSteadyStateNoAllocs(t *testing.T) {
	c := &countTask{ran: make([]atomic.Int32, 4)}
	c.g.Run(4, c)
	allocs := testing.AllocsPerRun(50, func() { c.g.Run(4, c) })
	if allocs != 0 {
		t.Errorf("%v allocs per 4-shard barrier, want 0", allocs)
	}
}

// TestPlansPinNoGoroutines: compiling and running many plans, none of
// them closed, leaves the goroutine count bounded by the peak
// concurrency of one call, not by the number of plans. The plans stay
// reachable until the count is taken, so no finalizer or GC can hide
// goroutines a plan pins.
func TestPlansPinNoGoroutines(t *testing.T) {
	const plans, workers = 64, 4
	a := matgen.Random(1000, 9000, 3)
	r := rng.New(5)
	asg := &core.Assignment{
		K: 8, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, a.Cols),
		YOwner:       make([]int, a.Rows),
	}
	for _, owners := range [][]int{asg.NonzeroOwner, asg.XOwner, asg.YOwner} {
		for i := range owners {
			owners[i] = r.Intn(asg.K)
		}
	}
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)

	var live []any
	base := runtime.NumGoroutine()
	for i := 0; i < plans; i++ {
		sp, err := spmv.NewPlan(asg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Exec(x, y, spmv.ExecOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		kp, err := kernel.NewPlan(a, nil, kernel.Options{CacheBudget: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if kp.Blocks() < workers {
			t.Fatalf("kernel plan has %d blocks, want ≥ %d to fan out", kp.Blocks(), workers)
		}
		if err := kp.Exec(x, y, kernel.ExecOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		live = append(live, sp, kp)
	}
	grown := runtime.NumGoroutine() - base
	runtime.KeepAlive(live)
	if grown > 2*workers {
		t.Errorf("%d spmv and %d kernel plans grew the goroutine count by %d, want ≤ %d",
			plans, plans, grown, 2*workers)
	}
}
