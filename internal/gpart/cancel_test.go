package gpart

import (
	"context"
	"errors"
	"runtime"
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
	g := path(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	if _, err := Partition(g, 4, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCancellationMidSearch(t *testing.T) {
	g := randomG(rng.New(7), 4000, 12000)
	// Warm the executor, so the workers a spawned branch parks on exist
	// before the baseline is taken.
	warm := DefaultOptions()
	warm.Workers = 2
	if _, err := Partition(g, 16, warm); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	// A handful of polls survive the entry checks; the search must then
	// stop at the next phase boundary rather than run to completion.
	for _, workers := range []int{1, 2} {
		for _, polls := range []int64{1, 3, 8, 20, 150, 400} {
			opts := DefaultOptions()
			opts.Workers = workers
			opts.Ctx = newCountdownCtx(polls)
			if _, err := Partition(g, 16, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d polls=%d: want context.Canceled, got %v", workers, polls, err)
			}
			// A spawned branch is joined before Partition returns, and its
			// worker parks before the join, so nothing is left running.
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("workers=%d polls=%d: %d goroutines after cancel, baseline %d", workers, polls, n, base)
			}
		}
	}
}

func TestContextDoesNotPerturbResult(t *testing.T) {
	g := randomG(rng.New(3), 600, 2000)
	opts := DefaultOptions()
	base, err := Partition(g, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Ctx = context.Background()
	withCtx, err := Partition(g, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Parts {
		if base.Parts[v] != withCtx.Parts[v] {
			t.Fatalf("vertex %d: part %d without ctx, %d with", v, base.Parts[v], withCtx.Parts[v])
		}
	}
}
