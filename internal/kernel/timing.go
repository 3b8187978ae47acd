package kernel

import (
	"fmt"
	"math"
	"time"

	"finegrain/internal/obs"
	"finegrain/internal/reorder"
	"finegrain/internal/sparse"
)

// roundBudget is the wall clock one TimeLayouts round aims for on the
// natural layout.
const roundBudget = 50 * time.Millisecond

// LayoutTiming is one natural-vs-permuted measurement of the kernel.
type LayoutTiming struct {
	// NaturalNs and PermutedNs are each layout's best-round wall clock
	// per Exec, in nanoseconds.
	NaturalNs, PermutedNs float64
	// Blocks is the permuted plan's cache-budget row-block count.
	Blocks int
}

// TimeLayouts compiles a in natural order and in perm's cache-blocked
// layout and measures the wall clock per Exec of each plan at
// GOMAXPROCS workers. Before
// timing it checks that the permuted output, gathered back through
// perm.Row, is bitwise equal to the natural output. It then runs
// rounds interleaved rounds — natural, then permuted — each sized by
// one warm natural Exec to about roundBudget, and reports each
// layout's fastest round. Interleaving makes both layouts sample the
// same noise (CPU steal on shared hosts skews sequential runs), and
// min-of-rounds is the least-noise estimator for a deterministic
// kernel. Vectors stay in each plan's own index space, the
// iterative-solver regime, where the permutation at the solve boundary
// is paid once. tr, when non-nil, records both compile spans and one
// exec span per layout (the checked warm-up calls), none inside the
// timed rounds.
func TimeLayouts(a *sparse.CSR, perm *reorder.Permutation, rounds int, tr *obs.Trace) (LayoutTiming, error) {
	if rounds < 1 {
		return LayoutTiming{}, fmt.Errorf("kernel: TimeLayouts with %d rounds", rounds)
	}
	natural, err := NewPlanTraced(a, nil, Options{}, tr)
	if err != nil {
		return LayoutTiming{}, err
	}
	defer natural.Close()
	permuted, err := NewPlanTraced(a, perm, Options{}, tr)
	if err != nil {
		return LayoutTiming{}, err
	}
	defer permuted.Close()

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	xp := make([]float64, a.Cols)
	reorder.ApplyVec(xp, x, perm.Col)
	y, yp := make([]float64, a.Rows), make([]float64, a.Rows)

	// Warm up (spawns the parked workers) and check the layouts agree.
	traced := ExecOptions{Track: tr.NewTrack("kernel measure")}
	if err := natural.Exec(x, y, traced); err != nil {
		return LayoutTiming{}, err
	}
	if err := permuted.Exec(xp, yp, traced); err != nil {
		return LayoutTiming{}, err
	}
	for i, r := range perm.Row {
		if math.Float64bits(yp[r]) != math.Float64bits(y[i]) {
			return LayoutTiming{}, fmt.Errorf("kernel: permuted row %d = %v, natural row %d = %v", r, yp[r], i, y[i])
		}
	}

	opts := ExecOptions{}
	start := time.Now()
	if err := natural.Exec(x, y, opts); err != nil {
		return LayoutTiming{}, err
	}
	iters := max(1, int(roundBudget/(time.Since(start)+1)))
	timeRound := func(pl *Plan, x, y []float64) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := pl.Exec(x, y, opts); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
	}
	t := LayoutTiming{NaturalNs: math.Inf(1), PermutedNs: math.Inf(1), Blocks: permuted.Blocks()}
	for round := 0; round < rounds; round++ {
		ns, err := timeRound(natural, x, y)
		if err != nil {
			return LayoutTiming{}, err
		}
		t.NaturalNs = min(t.NaturalNs, ns)
		if ns, err = timeRound(permuted, xp, yp); err != nil {
			return LayoutTiming{}, err
		}
		t.PermutedNs = min(t.PermutedNs, ns)
	}
	return t, nil
}
