package hgpart

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// countdownCtx is a context whose Err fires after a fixed number of
// polls, which exercises mid-search cancellation deterministically (a
// timer-based context would race the partitioner's speed).
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestCanceledContextRejectedUpFront(t *testing.T) {
	h := chain(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	if _, err := Partition(h, 4, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCancellationMidSearch(t *testing.T) {
	h := randomHG(rng.New(7), 4000, 3000)
	// A handful of polls survive the entry checks; the search must then
	// stop at the next phase boundary rather than run to completion.
	for _, polls := range []int64{1, 3, 8, 20} {
		opts := DefaultOptions()
		opts.Ctx = newCountdownCtx(polls)
		if _, err := Partition(h, 16, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: want context.Canceled, got %v", polls, err)
		}
	}
}

// TestContextDoesNotPerturbResult checks that polling a live context
// leaves partitions unchanged, on a random hypergraph and on the
// identity, whose stalled ladder makes greedy growing poll.
func TestContextDoesNotPerturbResult(t *testing.T) {
	for _, h := range []*hypergraph.Hypergraph{randomHG(rng.New(3), 600, 500), blockFineGrain(t, 1<<12, 1)} {
		opts := DefaultOptions()
		base, err := Partition(h, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Ctx = context.Background()
		withCtx, err := Partition(h, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(base.Parts, withCtx.Parts) {
			t.Fatalf("%v: a live context changed the partition", h)
		}
	}
}

func TestCancellationWithWorkers(t *testing.T) {
	h := randomHG(rng.New(11), 3000, 2500)
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Ctx = newCountdownCtx(10)
	if _, err := Partition(h, 8, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// blockFineGrain is the fine-grain hypergraph of the n × n matrix of
// n/b dense b × b diagonal blocks. At b = 1, the identity, every net
// has one pin, so no vertex ever finds a clustering partner and the
// coarsening ladder stalls at the input.
func blockFineGrain(t *testing.T, n, b int) *hypergraph.Hypergraph {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		lo := i / b * b
		for j := lo; j < lo+b; j++ {
			coo.Add(i, j, 1)
		}
	}
	fg, err := core.BuildFineGrain(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return fg.H
}

// TestGreedyGrowingPollsContext checks that initial bisection of a
// stalled level stops inside greedy growing once the context is
// canceled: the identity's 2¹⁴ vertices take thousands of growing
// moves, so a context canceled before the first trial must surface
// from initialBisect after at most one poll interval of moves and one
// poll.
func TestGreedyGrowingPollsContext(t *testing.T) {
	h := blockFineGrain(t, 1<<14, 1)
	opts := DefaultOptions()
	opts.normalize()
	ctx := newCountdownCtx(0)
	opts.Ctx = ctx
	fixedSide := make([]int8, h.NumVertices())
	for v := range fixedSide {
		fixedSide[v] = -1
	}
	bounds := mlpart.NewBounds(h.TotalVertexWeight(), 1, 1, opts.Eps)
	caps := bounds.Caps(h.VertexWeights())
	_, err := initialBisect(bisectCtx{}, h, fixedSide, bounds.Targets, bounds.Strict, caps,
		opts, opts.NewRNG(), new(scratch))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("initialBisect under a canceled context: %v, want context.Canceled", err)
	}
	if polls := -ctx.left.Load(); polls != 1 {
		t.Fatalf("%d polls before initialBisect returned, want 1", polls)
	}
}

// TestGreedyGrowingWorkLinear bounds the candidates greedy growing
// examines, frontier entries scanned plus fallback cursor steps, by
// 4·(pins + V), on inputs whose frontier keeps running dry: the
// fine-grain hypergraphs of the 2¹⁴ identity (1-pin nets only) and of
// the block-diagonal matrix of 4 × 4 blocks (4,096 components). A
// fallback that rescans from vertex 0 examines Θ(V²) candidates on
// both.
func TestGreedyGrowingWorkLinear(t *testing.T) {
	for _, b := range []int{1, 4} {
		h := blockFineGrain(t, 1<<14, b)
		opts := DefaultOptions()
		opts.normalize()
		fixedSide := make([]int8, h.NumVertices())
		for v := range fixedSide {
			fixedSide[v] = -1
		}
		bounds := mlpart.NewBounds(h.TotalVertexWeight(), 1, 1, opts.Eps)
		caps := bounds.Caps(h.VertexWeights())
		s := new(scratch)
		if _, err := initialBisect(bisectCtx{}, h, fixedSide, bounds.Targets, bounds.Strict, caps,
			opts, opts.NewRNG(), s); err != nil {
			t.Fatal(err)
		}
		limit := 4 * (h.NumPins() + h.NumVertices())
		if got := s.grow.Examined(); got > limit {
			t.Errorf("%d×%d blocks: greedy growing examined %d candidates, limit %d", b, b, got, limit)
		}
	}
}
