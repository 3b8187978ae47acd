package spmv

import (
	"runtime"
	"testing"
)

func TestExecWorkersClamp(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	big := &Plan{k: 64, nnz: serialNNZThreshold}
	small := &Plan{k: 64, nnz: serialNNZThreshold - 1}

	if got := big.execWorkers(0, 1); got != min(maxp, 64) {
		t.Errorf("default workers = %d, want GOMAXPROCS∧K = %d", got, min(maxp, 64))
	}
	if got := big.execWorkers(maxp+7, 1); got != maxp {
		t.Errorf("requested GOMAXPROCS+7 resolved to %d, want clamp to %d", got, maxp)
	}
	if got := big.execWorkers(2, 1); got != min(2, maxp) {
		t.Errorf("requested 2 resolved to %d", got)
	}
	tiny := &Plan{k: 2, nnz: serialNNZThreshold}
	if got := tiny.execWorkers(8, 1); got != min(2, maxp) {
		t.Errorf("K=2 resolved to %d, want clamp to K", got)
	}
	if got := small.execWorkers(8, 1); got != 1 {
		t.Errorf("small plan resolved to %d workers, want serial fast path", got)
	}
	if got := small.execWorkers(0, 1); got != 1 {
		t.Errorf("small plan default resolved to %d workers, want 1", got)
	}
	// Block calls: the serial threshold sees nnz·n, so the same small
	// plan fans out once enough right-hand sides ride along.
	if got := small.execWorkers(8, 16); got != min(8, maxp) {
		t.Errorf("small plan at n=16 resolved to %d workers, want %d", got, min(8, maxp))
	}
}
