package hgpart

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// LevelStat describes one rung of the coarsening ladder of the top-level
// bisection: the hypergraph size at that level and the time spent
// building it from the finer one (zero for the finest level, which is
// the input itself).
type LevelStat struct {
	Vertices  int
	Nets      int
	Pins      int
	BuildTime time.Duration
}

// Stats is the observability record of one PartitionFixedStats call,
// collected when Options.CollectStats is set. Counters aggregate over
// every bisection; phase times are summed busy time (they can exceed
// TotalTime when work ran in parallel). The Levels ladder and
// InitialCut describe the first (top-level) bisection, the one that
// dominates cost and quality.
type Stats struct {
	// Workers is the normalized worker bound the call ran with.
	Workers int
	// Bisections is the number of multilevel bisections performed
	// (K−1 under recursive bisection).
	Bisections int
	// Levels is the coarsening ladder of the top-level bisection,
	// finest first.
	Levels []LevelStat
	// InitialCut is the cut of the best initial bisection of the
	// coarsest hypergraph in the top-level bisection.
	InitialCut int
	// Per-phase busy times, summed across bisections.
	CoarsenTime time.Duration
	InitialTime time.Duration
	RefineTime  time.Duration
	// BusyTime is the sum of the phase times above; Utilization is
	// BusyTime / (Workers × TotalTime), an estimate of how busy the
	// worker pool was kept.
	BusyTime    time.Duration
	TotalTime   time.Duration
	Utilization float64
	// FM refinement counters: passes executed, vertices moved, and
	// moves undone by the roll-back to the best prefix.
	FMPasses    int
	FMMoves     int
	FMRollbacks int
	// RebalanceMoves counts vertices moved by the feasibility
	// restoration step outside FM passes.
	RebalanceMoves int
	// CoarsenRounds / FMRounds count parallel in-bisection rounds
	// executed on levels at or above the parallel threshold (8192
	// vertices; zero when every level took the serial path).
	CoarsenRounds int
	FMRounds      int
	// BranchesSpawned / BranchesInline count recursive-bisection sibling
	// pairs whose left branch ran on a pooled goroutine vs inline.
	BranchesSpawned int
	BranchesInline  int
	// MaxConcurrent is the peak number of simultaneously active
	// recursion tasks observed.
	MaxConcurrent int
}

// String renders a multi-line human-readable summary, as printed by
// cmd/sparsepart -stats.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partitioner stats:\n")
	fmt.Fprintf(&b, "  workers:      %d (peak concurrency %d, utilization %.0f%%)\n",
		s.Workers, s.MaxConcurrent, 100*s.Utilization)
	fmt.Fprintf(&b, "  bisections:   %d (%d branches spawned, %d inline)\n",
		s.Bisections, s.BranchesSpawned, s.BranchesInline)
	fmt.Fprintf(&b, "  phases:       coarsen %v, initial %v, refine %v (total wall %v)\n",
		s.CoarsenTime.Round(time.Microsecond), s.InitialTime.Round(time.Microsecond),
		s.RefineTime.Round(time.Microsecond), s.TotalTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  FM:           %d passes, %d moves, %d rolled back; %d rebalance moves\n",
		s.FMPasses, s.FMMoves, s.FMRollbacks, s.RebalanceMoves)
	fmt.Fprintf(&b, "  rounds:       %d coarsen, %d FM (parallel in-bisection)\n",
		s.CoarsenRounds, s.FMRounds)
	fmt.Fprintf(&b, "  initial cut:  %d (coarsest level)\n", s.InitialCut)
	fmt.Fprintf(&b, "  ladder:")
	for i, lv := range s.Levels {
		if i > 0 {
			fmt.Fprintf(&b, " →")
		}
		fmt.Fprintf(&b, " %dv/%dn", lv.Vertices, lv.Nets)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// statsCollector accumulates Stats under a mutex so concurrent branches
// can report without coordination. A nil collector is valid and
// turns every method into a no-op, which keeps the hot paths free of
// conditionals at the call sites.
type statsCollector struct {
	mu         sync.Mutex
	concurrent int
	s          Stats
}

func (c *statsCollector) enabled() bool { return c != nil }

// enter/leave bracket the run or one branch task for peak-concurrency
// tracking.
func (c *statsCollector) enter() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.concurrent++
	if c.concurrent > c.s.MaxConcurrent {
		c.s.MaxConcurrent = c.concurrent
	}
	c.mu.Unlock()
}

func (c *statsCollector) leave() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.concurrent--
	c.mu.Unlock()
}

func (c *statsCollector) addLevel(ls LevelStat) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.Levels = append(c.s.Levels, ls)
	c.mu.Unlock()
}

func (c *statsCollector) setInitialCut(cut int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.InitialCut = cut
	c.mu.Unlock()
}

func (c *statsCollector) addBisection(coarsen, initial, refine time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.Bisections++
	c.s.CoarsenTime += coarsen
	c.s.InitialTime += initial
	c.s.RefineTime += refine
	c.s.BusyTime += coarsen + initial + refine
	c.mu.Unlock()
}

func (c *statsCollector) addFMPass(moves, rollbacks int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.FMPasses++
	c.s.FMMoves += moves
	c.s.FMRollbacks += rollbacks
	c.mu.Unlock()
}

func (c *statsCollector) addRebalance(moves int) {
	if c == nil || moves == 0 {
		return
	}
	c.mu.Lock()
	c.s.RebalanceMoves += moves
	c.mu.Unlock()
}

// addCoarsenRound records one parallel clustering round; merges is the
// number of cluster joins it applied.
func (c *statsCollector) addCoarsenRound(merges int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.CoarsenRounds++
	c.mu.Unlock()
}

// addFMRound records one parallel refinement round and the moves it
// applied (moves also count toward FMMoves, like serial passes).
func (c *statsCollector) addFMRound(moves int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.FMRounds++
	c.s.FMMoves += moves
	c.mu.Unlock()
}

func (c *statsCollector) branch(spawned bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if spawned {
		c.s.BranchesSpawned++
	} else {
		c.s.BranchesInline++
	}
	c.mu.Unlock()
}

// finish stamps the call-level fields and returns a snapshot.
func (c *statsCollector) finish(total time.Duration, workers int) *Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.TotalTime = total
	c.s.Workers = workers
	if total > 0 && workers > 0 {
		c.s.Utilization = float64(c.s.BusyTime) / (float64(workers) * float64(total))
	}
	snap := c.s
	snap.Levels = append([]LevelStat(nil), c.s.Levels...)
	return &snap
}
