// The recursion scheduler both partitioners run. After a bisection the
// two sides are disjoint and write disjoint entries of the output, so
// one may run on a parked worker of the process-wide executor
// (internal/par) while the other runs inline; the caller draws both
// child RNG streams before the fork, so the schedule cannot change the
// partition.
//
// A partition call runs under a Call: a semaphore of Workers − 1 index
// tokens that never blocks, so exhausted slots mean inline work, never
// a deadlock. Token i owns a scratch arena and a forked trace track,
// made the first time the token is taken in the call and touched only
// by its holder. Arenas come from the Scheduler's strongly held free
// list and go back to it when the call ends.
package mlpart

import (
	"sync"

	"finegrain/internal/obs"
	"finegrain/internal/par"
)

// Branch is one recursion branch as a partitioner hands it to
// Call.Fork: its own arguments plus these methods.
type Branch[S any] interface {
	// Splits reports whether the branch still bisects (k > 1 and a
	// non-empty side).
	Splits() bool
	// Size weighs the branch for the choice of which sibling to spawn.
	Size() int
	// Run executes the branch on track tk with arena s, both owned by
	// the running goroutine; spawned is true on a worker slot.
	Run(tk *obs.Track, s *S, spawned bool) error
}

// freeList is a stack of reusable objects. Unlike a sync.Pool it holds
// them strongly, so garbage collection between partition calls does not
// drop warm arenas.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Scheduler is one partitioner's process-wide recursion state: the free
// lists of its scratch arenas S and of its spawn tasks. It retains one
// arena per goroutine that ran partitioner work at once. Track names
// the trace track a worker slot forks.
type Scheduler[S any, B Branch[S]] struct {
	Track  string
	arenas freeList[S]
	tasks  freeList[task[S, B]]
}

// Call is one partition call's worker slots.
type Call[S any, B Branch[S]] struct {
	sched  *Scheduler[S, B]
	own    *S
	tk     *obs.Track
	tokens chan int
	slots  []slot[S]
}

// slot is one token's arena and trace track, nil until first needed.
type slot[S any] struct {
	s  *S
	tk *obs.Track
}

// Begin opens a call with workers − 1 slots and returns it with the
// caller's own arena. tk is the caller's track, from which slot tracks
// fork. End the call once its recursion has joined.
func (sc *Scheduler[S, B]) Begin(workers int, tk *obs.Track) (*Call[S, B], *S) {
	c := &Call[S, B]{sched: sc, own: sc.arenas.get(), tk: tk}
	if workers > 1 {
		c.tokens = make(chan int, workers-1)
		c.slots = make([]slot[S], workers-1)
		for i := range c.slots {
			c.tokens <- i
		}
	}
	return c, c.own
}

// End returns every arena the call took to the free list. An arena may
// still point at the call (hgpart's round job does), so End also drops
// the call's tracks: a parked arena must not pin a finished trace.
func (c *Call[S, B]) End() {
	for _, st := range c.slots {
		if st.s != nil {
			c.sched.arenas.put(st.s)
		}
	}
	c.sched.arenas.put(c.own)
	c.own, c.tk, c.slots = nil, nil, nil
}

// TryAcquire takes a free token without blocking. A nil call or one
// without slots never grants one.
func (c *Call[S, B]) TryAcquire() (int, bool) {
	if c == nil {
		return 0, false
	}
	select {
	case i := <-c.tokens:
		return i, true
	default:
		return 0, false
	}
}

// Release returns token i.
func (c *Call[S, B]) Release(i int) { c.tokens <- i }

// Arena returns token i's arena. Only the token's holder may call it.
func (c *Call[S, B]) Arena(i int) *S {
	if c.slots[i].s == nil {
		c.slots[i].s = c.sched.arenas.get()
	}
	return c.slots[i].s
}

// Fork runs both branches of a bisection and joins them. When both
// still bisect and a token is free, the lighter branch (the right one
// on a tie) is spawned on the token's slot and the heavier one runs
// inline on tk and s; otherwise both run inline, left first. The
// spawned branch returns its token as soon as it finishes, so the slot
// re-enters circulation while the heavy side, whose descendants can use
// it, is still running. The left error takes precedence, as in the
// serial schedule. spawned reports whether a branch was spawned.
func (c *Call[S, B]) Fork(tk *obs.Track, s *S, left, right B) (spawned bool, err error) {
	i, ok := 0, false
	if left.Splits() && right.Splits() {
		i, ok = c.TryAcquire()
	}
	if !ok {
		if err := left.Run(tk, s, false); err != nil {
			return false, err
		}
		return false, right.Run(tk, s, false)
	}
	spawnLeft := left.Size() < right.Size()
	spawn, inline := right, left
	if spawnLeft {
		spawn, inline = left, right
	}
	t := c.sched.tasks.get()
	t.c, t.slot, t.b = c, i, spawn
	t.g.Go(t, 0)
	errIn := inline.Run(tk, s, false)
	t.g.Wait()
	errL, errR := errIn, t.err
	*t = task[S, B]{}
	c.sched.tasks.put(t)
	if spawnLeft {
		errL, errR = errR, errL
	}
	if errL != nil {
		return true, errL
	}
	return true, errR
}

// task is a spawned branch with its token. g is the branch's own join,
// since sibling forks nest and overlap.
type task[S any, B Branch[S]] struct {
	g    par.Group
	c    *Call[S, B]
	slot int
	b    B
	err  error
}

func (t *task[S, B]) Run(int, *par.Worker) {
	c, st := t.c, &t.c.slots[t.slot]
	if st.tk == nil {
		st.tk = c.tk.Fork(c.sched.Track)
	}
	t.err = t.b.Run(st.tk, c.Arena(t.slot), true)
	c.Release(t.slot)
}
