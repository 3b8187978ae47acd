package mlpart

import (
	"slices"
	"testing"

	"finegrain/internal/rng"
)

func TestBisectionEps(t *testing.T) {
	if e := BisectionEps(0.03, 2); e != 0.03 {
		t.Fatalf("K=2 eps %v", e)
	}
	e16 := BisectionEps(0.03, 16)
	if e16 <= 0 || e16 >= 0.03 {
		t.Fatalf("K=16 per-level eps %v out of range", e16)
	}
	// Compounding over 4 levels must not exceed the K-way bound.
	c := 1.0
	for i := 0; i < 4; i++ {
		c *= 1 + e16
	}
	if c > 1.0300001 {
		t.Fatalf("compounded eps %v exceeds 1.03", c)
	}
}

// TestRandomBisect: fixed vertices keep their side, and without fixed
// vertices the fill draws the same stream as a fill in r.Perm order,
// the graph partitioner's former random initial bisection.
func TestRandomBisect(t *testing.T) {
	const n = 50
	vw := make([]int, n)
	fixedSide := make([]int8, n)
	for v := range vw {
		vw[v] = 1 + v%3
		fixedSide[v] = -1
		if v%5 >= 3 {
			fixedSide[v] = int8(v%5 - 3)
		}
	}
	targets := [2]float64{40, 0}
	side := make([]int8, n)
	RandomBisect(vw, fixedSide, targets, rng.New(3), side, nil)
	for v, f := range fixedSide {
		if f >= 0 && side[v] != f {
			t.Fatalf("fixed vertex %d on side %d, want %d", v, side[v], f)
		}
	}

	RandomBisect(vw, nil, targets, rng.New(3), side, nil)
	want := make([]int8, n)
	var w0 float64
	for _, v := range rng.New(3).Perm(n) {
		if w0 < targets[0] {
			w0 += float64(vw[v])
		} else {
			want[v] = 1
		}
	}
	if !slices.Equal(side, want) {
		t.Fatalf("unfixed fill %v, want the Perm-order fill %v", side, want)
	}
}
