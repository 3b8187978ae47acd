package hgpart

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"finegrain/internal/rng"
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

func TestContextDoesNotPerturbResult(t *testing.T) {
	h := randomHG(rng.New(3), 600, 500)
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
	for v := range base.Parts {
		if base.Parts[v] != withCtx.Parts[v] {
			t.Fatalf("vertex %d: part %d without ctx, %d with", v, base.Parts[v], withCtx.Parts[v])
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
