package mlpart

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"finegrain/internal/obs"
)

type testArena struct{ id int }

// testBranch records its runs in log; k and size drive Splits and Size.
type testBranch struct {
	name string
	k    int
	size int
	err  error
	log  *runLog
}

type runLog struct {
	mu   sync.Mutex
	runs []string
}

func (b testBranch) Splits() bool { return b.k > 1 }
func (b testBranch) Size() int    { return b.size }
func (b testBranch) Run(_ *obs.Track, _ *testArena, spawned bool) error {
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	b.log.runs = append(b.log.runs, fmt.Sprintf("%s spawned=%v", b.name, spawned))
	return b.err
}

func newTestScheduler() *Scheduler[testArena, testBranch] {
	return &Scheduler[testArena, testBranch]{Track: "test worker"}
}

// TestWorkerPool checks the non-blocking semaphore used to bound
// partitioner goroutines.
func TestWorkerPool(t *testing.T) {
	sc := newTestScheduler()
	p0, _ := sc.Begin(1, nil)
	if _, ok := p0.TryAcquire(); ok {
		t.Fatal("capacity-0 pool must never grant a slot")
	}
	var nilPool *Call[testArena, testBranch]
	if _, ok := nilPool.TryAcquire(); ok {
		t.Fatal("nil pool must never grant a slot")
	}
	p, _ := sc.Begin(3, nil)
	i, ok1 := p.TryAcquire()
	_, ok2 := p.TryAcquire()
	if !ok1 || !ok2 {
		t.Fatal("capacity-2 pool should grant two slots")
	}
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("exhausted pool should refuse")
	}
	p.Release(i)
	if _, ok := p.TryAcquire(); !ok {
		t.Fatal("released slot should be reusable")
	}
}

// TestSlotArenaReused: a token's arena is made once per call and handed
// to every later holder of the token.
func TestSlotArenaReused(t *testing.T) {
	c, own := newTestScheduler().Begin(2, nil)
	i, _ := c.TryAcquire()
	a := c.Arena(i)
	if a == nil || a == own {
		t.Fatalf("slot arena %p, caller arena %p: want a distinct arena", a, own)
	}
	if c.Arena(i) != a {
		t.Fatal("a second Arena call by the holder made a new arena")
	}
	c.Release(i)
	j, ok := c.TryAcquire()
	if !ok || j != i {
		t.Fatalf("token %d (ok %v) after releasing the only token %d", j, ok, i)
	}
	if c.Arena(j) != a {
		t.Fatal("the next holder of a released token got a different arena")
	}
}

// TestCallEndReturnsArenas: End puts the caller's arena and every slot
// arena the call made back on the free list, and the next call takes
// them instead of making new ones.
func TestCallEndReturnsArenas(t *testing.T) {
	sc := newTestScheduler()
	c, own := sc.Begin(3, nil)
	own.id = 1
	i, _ := c.TryAcquire()
	j, _ := c.TryAcquire()
	c.Arena(i).id = 2
	c.Arena(j).id = 3
	c.Release(i)
	c.Release(j)
	c.End()
	if n := len(sc.arenas.free); n != 3 {
		t.Fatalf("%d arenas on the free list after End, want 3", n)
	}

	c, own = sc.Begin(3, nil)
	if own.id != 1 {
		t.Fatalf("next caller arena has id %d, want the previous caller's (1)", own.id)
	}
	ids := []int{own.id}
	for n := 0; n < 2; n++ {
		k, _ := c.TryAcquire()
		ids = append(ids, c.Arena(k).id)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []int{1, 2, 3}) {
		t.Fatalf("arena ids %v in the next call, want the three returned ones", ids)
	}
	c.End()
}

// TestForkSchedule checks Fork's one policy: with a free token and two
// splitting branches the lighter one (the right one on a tie) is
// spawned and the heavier one runs inline; otherwise both run inline,
// left first. The token is free again once Fork returns.
func TestForkSchedule(t *testing.T) {
	cases := []struct {
		name           string
		workers        int
		kL, sL, kR, sR int
		spawned        bool
		want           []string
	}{
		{"right lighter", 2, 2, 5, 2, 3, true, []string{"left spawned=false", "right spawned=true"}},
		{"tie", 2, 2, 4, 2, 4, true, []string{"left spawned=false", "right spawned=true"}},
		{"left lighter", 2, 2, 1, 2, 9, true, []string{"left spawned=true", "right spawned=false"}},
		{"right leaf", 2, 2, 5, 1, 3, false, []string{"left spawned=false", "right spawned=false"}},
		{"left leaf", 2, 1, 5, 2, 3, false, []string{"left spawned=false", "right spawned=false"}},
		{"no slots", 1, 2, 5, 2, 3, false, []string{"left spawned=false", "right spawned=false"}},
	}
	for _, tc := range cases {
		log := &runLog{}
		c, s := newTestScheduler().Begin(tc.workers, nil)
		spawned, err := c.Fork(nil, s,
			testBranch{name: "left", k: tc.kL, size: tc.sL, log: log},
			testBranch{name: "right", k: tc.kR, size: tc.sR, log: log})
		if err != nil || spawned != tc.spawned {
			t.Errorf("%s: spawned %v err %v, want spawned %v", tc.name, spawned, err, tc.spawned)
		}
		runs := log.runs
		if tc.spawned {
			slices.Sort(runs)
		}
		if !slices.Equal(runs, tc.want) {
			t.Errorf("%s: runs %v, want %v", tc.name, runs, tc.want)
		}
		if tc.workers > 1 {
			if i, ok := c.TryAcquire(); ok {
				c.Release(i)
			} else {
				t.Errorf("%s: token not released", tc.name)
			}
		}
		c.End()
	}
}

// TestForkErrorPrecedence: the left branch's error wins whichever side
// was spawned, and an inline left error skips the right branch.
func TestForkErrorPrecedence(t *testing.T) {
	errL, errR := errors.New("left"), errors.New("right")
	for _, workers := range []int{1, 2} {
		for _, leftLighter := range []bool{false, true} {
			sL, sR := 5, 3
			if leftLighter {
				sL, sR = 3, 5
			}
			log := &runLog{}
			c, s := newTestScheduler().Begin(workers, nil)
			_, err := c.Fork(nil, s,
				testBranch{name: "left", k: 2, size: sL, err: errL, log: log},
				testBranch{name: "right", k: 2, size: sR, err: errR, log: log})
			if err != errL {
				t.Errorf("workers=%d leftLighter=%v: error %v, want the left one", workers, leftLighter, err)
			}
			if workers == 1 && len(log.runs) != 1 {
				t.Errorf("workers=1: runs %v, want the right branch skipped", log.runs)
			}
			_, err = c.Fork(nil, s,
				testBranch{name: "left", k: 2, size: sL, log: log},
				testBranch{name: "right", k: 2, size: sR, err: errR, log: log})
			if err != errR {
				t.Errorf("workers=%d leftLighter=%v: error %v, want the right one", workers, leftLighter, err)
			}
			c.End()
		}
	}
}

// treeBranch bisects [lo, lo+k) down to single parts, counting each
// leaf in out and writing its arena without synchronization, so the
// race detector reports two goroutines sharing an arena.
type treeBranch struct {
	c   *Call[testArena, treeBranch]
	lo  int
	k   int
	out []int
}

func (b treeBranch) Splits() bool { return b.k > 1 }
func (b treeBranch) Size() int    { return b.k }
func (b treeBranch) Run(tk *obs.Track, s *testArena, _ bool) error {
	s.id++
	if b.k == 1 {
		b.out[b.lo]++
		return nil
	}
	kL := b.k / 2
	_, err := b.c.Fork(tk, s,
		treeBranch{c: b.c, lo: b.lo, k: kL, out: b.out},
		treeBranch{c: b.c, lo: b.lo + kL, k: b.k - kL, out: b.out})
	return err
}

// TestConcurrentCalls runs several recursions at once on one scheduler,
// traced, at several worker counts: every leaf runs exactly once, and
// under -race no arena or slot track is touched by two goroutines.
func TestConcurrentCalls(t *testing.T) {
	sc := &Scheduler[testArena, treeBranch]{Track: "test worker"}
	tr := obs.New()
	const calls, k = 4, 37
	var wg sync.WaitGroup
	for g := 0; g < calls; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				tk := tr.NewTrack("test run")
				c, s := sc.Begin(workers, tk)
				out := make([]int, k)
				err := treeBranch{c: c, k: k, out: out}.Run(tk, s, false)
				c.End()
				if err != nil {
					t.Error(err)
				}
				for i, n := range out {
					if n != 1 {
						t.Errorf("workers=%d: leaf %d ran %d times", workers, i, n)
					}
				}
			}
		}(1 + 2*g)
	}
	wg.Wait()
	// One arena per goroutine that could have run at once: the sum of
	// the calls' worker counts.
	if n, held := len(sc.arenas.free), calls*calls; n > held {
		t.Errorf("%d arenas retained, more than the %d the calls could hold at once", n, held)
	}
}
