// Package mlpart holds the substrate-independent pieces of multilevel
// recursive bisection that the hypergraph partitioner (internal/hgpart,
// after PaToH) and the graph partitioner (internal/gpart, after MeTiS)
// share: the options core and the fixed algorithm constants, the
// per-bisection balance caps, the initial bisection of the coarsest
// level, the Fiduccia–Mattheyses gain buckets and the K-way balance
// repair. The two partitioners differ only in their objective
// (connectivity−1 against edge cut) and in the structure they walk, so
// the graph baseline runs the hypergraph partitioner's scheme by
// construction, not by copy. The initial bisection runs on a
// hypergraph: a graph's edges are its 2-pin nets, on which greedy
// hypergraph growing is greedy graph growing and the cut-net cost is
// the edge cut.
package mlpart

import (
	"context"
	"math"
	"runtime"

	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// Options configures a partitioner run; see DefaultOptions. The
// remaining settings of the algorithm are the package constants below.
type Options struct {
	// Seed drives every random choice; identical seeds give identical
	// partitions.
	Seed uint64
	// Eps is the allowed final imbalance ε in the balance criterion
	// W_k ≤ W_avg(1+ε). The paper reports imbalance below 3%, so the
	// default is 0.03.
	Eps float64
	// Workers bounds the number of goroutines one partition call uses
	// (0 = runtime.GOMAXPROCS(0)). The partition is bitwise identical
	// for every Workers value given the same Seed.
	Workers int
	// Trace, when non-nil, records phase spans (the run, each bisection,
	// coarsening level and refinement) onto the given trace for Chrome
	// trace-event export. Tracing never consumes randomness or alters a
	// partitioning decision, so traced and untraced runs are bitwise
	// identical; when nil (the default) every span call is a free no-op.
	Trace *obs.Trace
	// Ctx, when non-nil, lets the caller abandon a partition mid-search:
	// the partitioner polls it at phase boundaries (each bisection, each
	// coarsening level, each FM pass) and returns the context's error.
	// Cancellation never consumes randomness, so a run that is not
	// canceled is bitwise identical whether or not a context was set.
	Ctx context.Context
}

// The fixed settings of the multilevel algorithm, the PaToH-style
// defaults both partitioners run.
const (
	// CoarsenTo is the vertex count at which coarsening stops.
	CoarsenTo = 100
	// MaxLevels bounds the number of coarsening levels.
	MaxLevels = 40
	// InitTrials is the number of initial-bisection attempts on the
	// coarsest level.
	InitTrials = 8
	// FMPasses bounds FM refinement passes per level.
	FMPasses = 4
	// MaxNegMoves ends an FM pass after this many consecutive
	// non-improving moves (hill-climb window).
	MaxNegMoves = 100
)

// DefaultOptions returns the configuration every caller runs: seed 1
// and ε = 3% (the paper's reported bound).
func DefaultOptions() Options {
	return Options{Seed: 1, Eps: 0.03}
}

// Normalize replaces a non-positive Eps by the default 0.03 and a
// non-positive Workers by runtime.GOMAXPROCS(0).
func (o *Options) Normalize() {
	if o.Eps <= 0 {
		o.Eps = 0.03
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Canceled reports the context's error, if a context was set and it has
// fired. It is polled on hot-path phase boundaries, so it must stay a
// plain nil check plus ctx.Err().
func (o *Options) Canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// NewRNG builds the run's root generator.
func (o *Options) NewRNG() *rng.RNG {
	return rng.New(o.Seed + 0x9e3779b97f4a7c15)
}

// BisectionEps converts an imbalance budget ε (multiplicative slack
// 1+ε) into one bisection's ε′ such that compounding over the
// ⌈log2 k⌉ levels of the deepest recursion path below stays within the
// budget: (1+ε′)^depth = 1+ε.
func BisectionEps(eps float64, k int) float64 {
	depth := 0
	for p := 1; p < k; p *= 2 {
		depth++
	}
	if depth <= 1 {
		return eps
	}
	return math.Pow(1+eps, 1/float64(depth)) - 1
}

// Bounds is the weight rule of one bisection: the target weight of
// each side, proportional to the kL:kR part split, and the strict cap
// (1+ε′) × target.
type Bounds struct {
	Targets [2]float64
	Strict  [2]float64
}

// NewBounds derives the targets and strict caps of a bisection of total
// weight totalW into kL and kR parts under ε′ = epsB. With unit weights
// and odd counts the strict bound can be infeasible, so a cap is never
// below target + 1.
func NewBounds(totalW, kL, kR int, epsB float64) Bounds {
	targetL := float64(totalW) * float64(kL) / float64(kL+kR)
	b := Bounds{Targets: [2]float64{targetL, float64(totalW) - targetL}}
	for s := 0; s < 2; s++ {
		b.Strict[s] = max(b.Targets[s]*(1+epsB), b.Targets[s]+1)
	}
	return b
}

// Caps returns the caps of a level whose vertex weights are vw. A level
// whose vertices (clusters) are heavier than the balance slack could
// never be refined under the strict bound, so each side's cap is
// relaxed to target + the level's heaviest vertex. Finer levels have
// lighter vertices, so the caps tighten as the partition is projected
// back.
func (b Bounds) Caps(vw []int) [2]float64 {
	mw := 0
	for _, w := range vw {
		mw = max(mw, w)
	}
	caps := b.Strict
	for s := 0; s < 2; s++ {
		caps[s] = max(caps[s], b.Targets[s]+float64(mw))
	}
	return caps
}

// Within reports whether side weights w respect caps, up to the 1e-9
// tolerance every balance test of the partitioners uses.
func Within(w, caps [2]float64) bool {
	return w[0] <= caps[0]+1e-9 && w[1] <= caps[1]+1e-9
}

// SideWeights sums the vertex weights vw of each side of a bisection.
func SideWeights(vw []int, side []int8) [2]float64 {
	var w [2]float64
	for v, s := range side {
		w[s] += float64(vw[v])
	}
	return w
}

// RandomBisect writes a random bisection into side, one entry per
// vertex of weight vw[v]: a vertex with fixedSide[v] ≥ 0 keeps that
// side (no vertex is fixed when fixedSide is nil), and the free ones,
// shuffled, fill side 0 up to targets[0] and the rest go to side 1. free
// is a reusable buffer; RandomBisect returns it grown.
func RandomBisect(vw []int, fixedSide []int8, targets [2]float64, r *rng.RNG, side []int8, free []int) []int {
	var w0 float64
	free = free[:0]
	for v := range side {
		switch {
		case fixedSide == nil || fixedSide[v] < 0:
			free = append(free, v)
		case fixedSide[v] == 0:
			side[v] = 0
			w0 += float64(vw[v])
		default:
			side[v] = 1
		}
	}
	r.Shuffle(free)
	for _, v := range free {
		if w0 < targets[0] {
			side[v] = 0
			w0 += float64(vw[v])
		} else {
			side[v] = 1
		}
	}
	return free
}

// Grow returns buf resliced to length n, reallocating only when its
// capacity is short. The contents are unspecified: callers initialize
// every entry they read, or stamp-guard their reads.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
