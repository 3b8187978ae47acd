package hgpart

import (
	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// initialBisect produces a starting 0/1 side assignment of the coarsest
// hypergraph by mlpart.InitialBisect: greedy hypergraph growing and
// random fills, each refined with FM, the best feasible by cut kept. An
// error is returned if no attempt was feasible, or if opts' context is
// canceled while a greedy trial grows.
//
// The returned slice is scratch-owned (s.grow's); it stays valid until
// the next initial bisection on the arena.
func initialBisect(ctx bisectCtx, h *hypergraph.Hypergraph, fixedSide []int8,
	targets, strict, relaxed [2]float64, opts Options, r *rng.RNG, s *scratch) ([]int8, error) {

	best, cut, err := mlpart.InitialBisect(h, fixedSide, targets, relaxed, &opts.Options, r, &s.grow,
		func(side []int8) { refineBisection(ctx, h, side, fixedSide, strict, relaxed, opts, r, s) })
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	if ctx.top {
		ctx.sc.setInitialCut(cut)
	}
	return best, nil
}
