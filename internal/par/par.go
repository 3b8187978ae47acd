// Package par is the process-wide executor behind every parallel path
// of both partitioners (internal/hgpart, internal/gpart) and both SpMV
// runtimes (internal/spmv, internal/kernel). It keeps one free list of
// parked goroutines, initialised lazily and shared by all callers, the
// way mt-KaHyPar holds one thread pool per process.
//
// The contract:
//
//   - Submission never blocks: Go hands a task to a parked worker, or
//     starts a new one when none is parked.
//   - The executor never creates concurrency on its own. Callers bound
//     it: the partitioners through the worker slots of mlpart's
//     recursion scheduler (Workers − 1 per call), the SpMV runtimes
//     through their per-call worker counts. The number of goroutines is
//     the peak number of tasks ever in flight at once.
//   - A worker parks before it signals completion, so a waiter that
//     submits again right after Wait reuses it while its caches are
//     warm.
//   - Steady-state Go/Wait allocates nothing: tasks travel as interface
//     values holding pointers, and the completion barrier is a
//     caller-owned Group.
//
// A parked worker holds no reference to the tasks it ran, so dropping
// the last reference to a plan or a hypergraph frees it without any
// Close or finalizer.
package par

import "sync"

// Task is one unit of work. shard is the index the submitter passed
// to Go (Run gives shards 0..n−1). w is the executing worker, or nil
// when Run executes shard 0 inline on the caller's goroutine.
type Task interface {
	Run(shard int, w *Worker)
}

// Worker is one parked goroutine of the executor. It keeps no state
// across tasks: a caller that wants per-goroutine scratch owns it, as
// the partitioners' worker slots do.
type Worker struct {
	ch chan msg
}

type msg struct {
	t     Task
	shard int
	g     *Group
}

var (
	mu   sync.Mutex
	idle []*Worker
)

// get pops a parked worker or starts a new one. This is the only go
// statement behind the partitioner and the SpMV runtimes.
func get() *Worker {
	mu.Lock()
	if n := len(idle); n > 0 {
		w := idle[n-1]
		idle = idle[:n-1]
		mu.Unlock()
		return w
	}
	mu.Unlock()
	w := &Worker{ch: make(chan msg, 1)}
	go w.loop()
	return w
}

func (w *Worker) loop() {
	for m := range w.ch {
		m.t.Run(m.shard, w)
		g := m.g
		m = msg{} // a parked worker must not pin its last task
		mu.Lock()
		idle = append(idle, w)
		mu.Unlock()
		g.wg.Done()
	}
}

// Group is a completion barrier for tasks submitted with Go. The zero
// value is ready to use, and a Group is reusable once Wait returns.
// Keep it in a long-lived struct: workers hold a pointer to it, so a
// Group declared per call escapes to the heap.
type Group struct {
	wg sync.WaitGroup
}

// Go runs t.Run(shard, w) on a parked worker. It never blocks. Writes
// made before Go are visible to the task, and the task's writes are
// visible after Wait.
func (g *Group) Go(t Task, shard int) {
	g.wg.Add(1)
	// The worker is off the free list, so its one-slot channel is empty.
	get().ch <- msg{t: t, shard: shard, g: g}
}

// Wait blocks until every task submitted with Go has finished.
func (g *Group) Wait() { g.wg.Wait() }

// Run is the barrier fan-out: shards 1..n−1 of t go to parked workers,
// shard 0 runs inline with a nil Worker, and Run returns once all n
// shards are done. n ≤ 1 runs shard 0 alone.
func (g *Group) Run(n int, t Task) {
	for i := 1; i < n; i++ {
		g.Go(t, i)
	}
	t.Run(0, nil)
	g.Wait()
}
