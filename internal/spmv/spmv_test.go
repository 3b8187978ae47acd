package spmv_test

import (
	"math"
	"testing"
	"testing/quick"

	"finegrain/internal/comm"
	"finegrain/internal/core"
	"finegrain/internal/hgpart"
	"finegrain/internal/matgen"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
	"finegrain/internal/spmv"
)

func randomAssignment(a *sparse.CSR, k int, r *rng.RNG) *core.Assignment {
	asg := &core.Assignment{
		K: k, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, a.Cols),
		YOwner:       make([]int, a.Rows),
	}
	for i := range asg.NonzeroOwner {
		asg.NonzeroOwner[i] = r.Intn(k)
	}
	for i := range asg.XOwner {
		asg.XOwner[i] = r.Intn(k)
	}
	for i := range asg.YOwner {
		asg.YOwner[i] = r.Intn(k)
	}
	return asg
}

func vecEqual(a, b []float64) bool {
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Abs(b[i]))
		if diff > 1e-9*scale {
			return false
		}
	}
	return true
}

// run is the single-shot path: compile asg, multiply x once, and
// discard the plan, returning y with the plan's counters.
func run(asg *core.Assignment, x []float64) (*spmv.Result, error) {
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	y := make([]float64, asg.A.Rows)
	if err := pl.Exec(x, y, spmv.ExecOptions{}); err != nil {
		return nil, err
	}
	res := pl.Counters()
	res.Y = y
	return &res, nil
}

// The simulator must reproduce the serial kernel for ANY ownership
// assignment, not just partitioned ones.
func TestMatchesSerialRandomAssignments(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(40)
		a := matgen.Random(n, n*(1+r.Intn(4)), seed)
		k := 1 + r.Intn(8)
		asg := randomAssignment(a, k, r)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*4 - 2
		}
		res, err := run(asg, x)
		if err != nil {
			return false
		}
		want := make([]float64, n)
		a.MulVec(x, want)
		return vecEqual(res.Y, want)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The simulator's word counters must equal the analyzer's volumes: the
// executable and analytic views of communication agree exactly.
func TestWordCountsMatchAnalyzer(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(40)
		a := matgen.RandomPattern(n, n*(1+r.Intn(4)), seed)
		k := 1 + r.Intn(8)
		asg := randomAssignment(a, k, r)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
		}
		res, err := run(asg, x)
		if err != nil {
			return false
		}
		st, err := comm.Measure(asg)
		if err != nil {
			return false
		}
		return res.ExpandWords == st.ExpandVolume &&
			res.FoldWords == st.FoldVolume &&
			res.ExpandMessages == st.ExpandMessages &&
			res.FoldMessages == st.FoldMessages
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// End-to-end: partition with the fine-grain model, execute, verify both
// the numbers and the volume identity.
func TestEndToEndFineGrain(t *testing.T) {
	spec, err := matgen.Lookup("ken-11")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Scaled(0.03).Generate(1)
	fg, err := core.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := hgpart.Partition(fg.H, 8, hgpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	asg, err := fg.Decode2D(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	res, err := run(asg, x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	if !vecEqual(res.Y, want) {
		t.Fatal("parallel result differs from serial")
	}
	if res.TotalWords() != p.CutsizeConnectivity(fg.H) {
		t.Fatalf("moved %d words, cutsize %d — the paper's theorem must hold on executed runs",
			res.TotalWords(), p.CutsizeConnectivity(fg.H))
	}
}

func TestSingleProcessor(t *testing.T) {
	a := matgen.Random(12, 40, 2)
	asg := &core.Assignment{K: 1, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, 12), YOwner: make([]int, 12)}
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i)
	}
	res, err := run(asg, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWords() != 0 || res.TotalMessages() != 0 {
		t.Fatal("K=1 should communicate nothing")
	}
	want := make([]float64, 12)
	a.MulVec(x, want)
	if !vecEqual(res.Y, want) {
		t.Fatal("result wrong")
	}
}

func TestEmptyRowsProduceZero(t *testing.T) {
	a := sparse.FromEntries(3, 3, []sparse.Entry{{Row: 0, Col: 0, Val: 2}})
	asg := &core.Assignment{K: 2, A: a,
		NonzeroOwner: []int{0},
		XOwner:       []int{0, 1, 0},
		YOwner:       []int{1, 0, 1}, // y_0 owned remotely from its only nonzero
	}
	x := []float64{3, 1, 1}
	res, err := run(asg, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Y[0] != 6 || res.Y[1] != 0 || res.Y[2] != 0 {
		t.Fatalf("y = %v, want [6 0 0]", res.Y)
	}
	// One expand (x_0 from P0 to ... actually a_00 is on P0 with x_0 on
	// P0 → no expand) and one fold (partial y_0 from P0 to P1).
	if res.ExpandWords != 0 || res.FoldWords != 1 {
		t.Fatalf("words %d/%d, want 0/1", res.ExpandWords, res.FoldWords)
	}
}

func TestErrors(t *testing.T) {
	a := sparse.Identity(3)
	asg := &core.Assignment{K: 2, A: a,
		NonzeroOwner: []int{0, 1, 0},
		XOwner:       []int{0, 1, 0}, YOwner: []int{0, 1, 0}}
	if _, err := run(asg, make([]float64, 2)); err == nil {
		t.Error("wrong x length accepted")
	}
	bad := &core.Assignment{K: 0, A: a,
		NonzeroOwner: []int{0, 0, 0},
		XOwner:       []int{0, 0, 0}, YOwner: []int{0, 0, 0}}
	if _, err := run(bad, make([]float64, 3)); err == nil {
		t.Error("invalid assignment accepted")
	}
}

func TestManyProcessorsFewNonzeros(t *testing.T) {
	// More processors than nonzeros: some processors own nothing and
	// must still terminate.
	a := sparse.Identity(4)
	asg := &core.Assignment{K: 16, A: a,
		NonzeroOwner: []int{0, 3, 7, 11},
		XOwner:       []int{1, 2, 3, 4},
		YOwner:       []int{5, 6, 7, 8}}
	x := []float64{1, 2, 3, 4}
	res, err := run(asg, x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 4)
	a.MulVec(x, want)
	if !vecEqual(res.Y, want) {
		t.Fatalf("y = %v", res.Y)
	}
}

func TestDeterministicResults(t *testing.T) {
	// Concurrency must not change the numeric outcome across runs
	// (per-processor accumulation order is fixed by ownership).
	r := rng.New(77)
	a := matgen.Random(50, 300, 4)
	asg := randomAssignment(a, 6, r)
	x := make([]float64, 50)
	for i := range x {
		x[i] = r.Float64()
	}
	first, err := run(asg, x)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		res, err := run(asg, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Y {
			if res.Y[i] != first.Y[i] {
				t.Fatalf("run %d differs at %d", trial, i)
			}
		}
	}
}

func TestCorruptXOwnerReturnsError(t *testing.T) {
	// A corrupted decomposition must surface as an error from Run, never
	// a panic or a hang.
	a := sparse.Identity(4)
	asg := &core.Assignment{K: 2, A: a,
		NonzeroOwner: []int{0, 1, 0, 1},
		XOwner:       []int{0, 1, 0, 1},
		YOwner:       []int{0, 1, 0, 1}}
	x := []float64{1, 2, 3, 4}
	if _, err := run(asg, x); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	asg.XOwner[2] = 7 // out of range for K=2
	res, err := run(asg, x)
	if err == nil {
		t.Fatal("corrupt XOwner accepted")
	}
	if res != nil {
		t.Fatal("corrupt XOwner returned a result alongside the error")
	}
	asg.XOwner[2] = -1
	if _, err := run(asg, x); err == nil {
		t.Fatal("negative XOwner accepted")
	}
}
