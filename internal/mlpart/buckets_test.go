package mlpart

import (
	"testing"

	"finegrain/internal/rng"
)

// newBuckets returns buckets sized for numV vertices and gains in
// [−maxBound, maxBound].
func newBuckets(numV, maxBound int) *Buckets {
	b := new(Buckets)
	b.Ensure(numV, maxBound)
	return b
}

// unitWeights returns n vertex weights of 1.
func unitWeights(n int) []int {
	vw := make([]int, n)
	for i := range vw {
		vw[i] = 1
	}
	return vw
}

func TestGainBuckets(t *testing.T) {
	b := newBuckets(10, 5)
	b.Insert(3, 0, 2)
	b.Insert(4, 0, 5)
	b.Insert(5, 1, -3)
	if b.count[0] != 2 || b.count[1] != 1 {
		t.Fatalf("counts %v", b.count)
	}
	vw := unitWeights(10)
	v, g, ok := b.BestFeasible(vw, 0, 0, 100, 16, 64)
	if !ok || v != 4 || g != 5 {
		t.Fatalf("bestFeasible = (%d,%d,%v)", v, g, ok)
	}
	b.Remove(4)
	v, g, ok = b.BestFeasible(vw, 0, 0, 100, 16, 64)
	if !ok || v != 3 || g != 2 {
		t.Fatalf("after remove: (%d,%d,%v)", v, g, ok)
	}
	b.Update(3, -4)
	v, g, ok = b.BestFeasible(vw, 0, 0, 100, 16, 64)
	if !ok || v != 3 || g != -2 {
		t.Fatalf("after update: (%d,%d,%v)", v, g, ok)
	}
	// Weight feasibility: a unit-weight candidate does not fit when the
	// other side is already at its cap, and fits once there is room.
	if _, _, ok := b.BestFeasible(vw, 1, 100, 100, 16, 64); ok {
		t.Fatal("candidate should not fit with zero room")
	}
	if _, _, ok := b.BestFeasible(vw, 1, 100, 101.5, 16, 64); !ok {
		t.Fatal("side 1 candidate should fit with room")
	}
}

// TestBestFeasibleSkipsBlockedBucket reproduces the search defect where a
// cluster of infeasibly heavy vertices in the top gain bucket aborted the
// whole search: with the per-bucket probe cap the search must fall
// through to a lower-gain bucket holding a feasible light vertex.
func TestBestFeasibleSkipsBlockedBucket(t *testing.T) {
	const heavy = 70 // more heavy vertices than the per-bucket cap
	vw := make([]int, heavy+1)
	for v := 0; v < heavy; v++ {
		vw[v] = 100
	}
	vw[heavy] = 1

	bk := newBuckets(heavy+1, 8)
	for v := 0; v < heavy; v++ {
		bk.Insert(v, 0, 5) // top bucket: all too heavy to move
	}
	bk.Insert(heavy, 0, 4) // next bucket: fits

	// Other side has room for weight 50 only: every heavy vertex is
	// infeasible, the light one is not.
	v, g, ok := bk.BestFeasible(vw, 0, 0, 50, 64, 256)
	if !ok || v != heavy || g != 4 {
		t.Fatalf("bestFeasible = (%d,%d,%v), want (%d,4,true)", v, g, ok, heavy)
	}

	// The total budget still bounds the search: with a budget smaller
	// than the blocked bucket's cap, the search gives up.
	if _, _, ok := bk.BestFeasible(vw, 0, 0, 50, 64, 8); ok {
		t.Fatal("bestFeasible should exhaust a tiny total budget")
	}
}

// singleCapProbe is the graph partitioner's probe before it shared the
// buckets: one cap on the vertices probed across all buckets.
func singleCapProbe(b *Buckets, vw []int, s int, wOther, maxOther float64, probeCap int) (int, int, bool) {
	if b.count[s] == 0 {
		return -1, 0, false
	}
	probes := 0
	for gn := b.maxG[s]; gn >= -b.off; gn-- {
		v := b.heads[s][gn+b.off]
		if v < 0 {
			if gn == b.maxG[s] {
				b.maxG[s] = gn - 1
			}
			continue
		}
		for v >= 0 {
			if wOther+float64(vw[v]) <= maxOther+1e-9 {
				return v, gn, true
			}
			probes++
			if probes >= probeCap {
				return -1, 0, false
			}
			v = b.next[v]
		}
	}
	return -1, 0, false
}

// TestBestFeasibleSingleCap checks that BestFeasible with equal bucket
// and total caps picks what the single-cap probe picks, on buckets whose
// top gains hold heavy vertices that do not fit, in runs both shorter
// and longer than the cap.
func TestBestFeasibleSingleCap(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		numV := 20 + r.Intn(150)
		vw := make([]int, numV)
		b, ref := newBuckets(numV, 10), newBuckets(numV, 10)
		nHeavy := r.Intn(numV)
		for _, v := range r.Perm(numV) {
			g := -10 + r.Intn(11)
			vw[v] = 1
			if nHeavy > 0 {
				nHeavy--
				vw[v], g = 100, 10-r.Intn(3)
			}
			side := int8(r.Intn(2))
			b.Insert(v, side, g)
			ref.Insert(v, side, g)
		}
		for _, c := range []int{4, 16, 64} {
			for s := 0; s < 2; s++ {
				v, g, ok := b.BestFeasible(vw, s, 0, 50, c, c)
				wv, wg, wok := singleCapProbe(ref, vw, s, 0, 50, c)
				if v != wv || g != wg || ok != wok {
					t.Fatalf("trial %d cap %d side %d: BestFeasible (%d,%d,%v), single-cap probe (%d,%d,%v)",
						trial, c, s, v, g, ok, wv, wg, wok)
				}
			}
		}
	}
}
