package kernel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"finegrain/internal/matgen"
	"finegrain/internal/obs"
	"finegrain/internal/reorder"
	"finegrain/internal/sparse"
)

// serialRef is the reference result: each row accumulated in original
// CSR order, the order every plan is compiled to preserve.
func serialRef(a *sparse.CSR, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s float64
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			s += a.Val[t] * x[a.ColIdx[t]]
		}
		y[i] = s
	}
	return y
}

func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randomPerm(a *sparse.CSR, seed int64) *reorder.Permutation {
	rng := rand.New(rand.NewSource(seed))
	p := reorder.Identity(a.Rows, a.Cols)
	rng.Shuffle(a.Rows, func(i, j int) { p.Row[i], p.Row[j] = p.Row[j], p.Row[i] })
	rng.Shuffle(a.Cols, func(i, j int) { p.Col[i], p.Col[j] = p.Col[j], p.Col[i] })
	return p
}

func TestExecMatchesSerialAnyWorkers(t *testing.T) {
	a := matgen.Random(400, 3000, 11)
	x := randomVec(a.Cols, 1)
	want := serialRef(a, x)
	// A tiny budget forces many blocks so multi-worker runs really
	// split the matrix.
	pl, err := NewPlan(a, nil, Options{CacheBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if pl.Blocks() < 4 {
		t.Fatalf("expected many blocks, got %d", pl.Blocks())
	}
	y := make([]float64, a.Rows)
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for i := range y {
			y[i] = math.NaN() // Exec must overwrite everything
		}
		if err := pl.Exec(x, y, ExecOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(y, want) {
			t.Fatalf("workers=%d: output differs from serial reference", workers)
		}
	}
}

func TestExecPermutedBitwiseThroughInverse(t *testing.T) {
	a := matgen.Random(300, 2500, 5)
	x := randomVec(a.Cols, 2)
	want := serialRef(a, x)
	perm := randomPerm(a, 3)
	inv := perm.Inverse()

	tr := obs.New()
	pl, err := NewPlanTraced(a, perm, Options{CacheBudget: 1 << 10}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if tr.Len() == 0 {
		t.Error("NewPlanTraced recorded no span")
	}

	xp := make([]float64, a.Cols)
	reorder.ApplyVec(xp, x, perm.Col)
	yp := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for _, workers := range []int{1, 2, 8} {
		if err := pl.Exec(xp, yp, ExecOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		reorder.ApplyVec(y, yp, inv.Row)
		if !reflect.DeepEqual(y, want) {
			t.Fatalf("workers=%d: permuted output (through inverse) differs bitwise from natural order", workers)
		}
	}
}

func TestExecZeroSteadyStateAllocs(t *testing.T) {
	a := matgen.Random(200, 1500, 7)
	pl, err := NewPlan(a, nil, Options{CacheBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	x := randomVec(a.Cols, 4)
	y := make([]float64, a.Rows)
	for _, workers := range []int{1, 8} {
		opts := ExecOptions{Workers: workers}
		// Warm up: the first parallel call spawns the parked workers.
		if err := pl.Exec(x, y, opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := pl.Exec(x, y, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("workers=%d: Exec allocated %v times per run, want 0", workers, allocs)
		}
	}
}

func TestExecErrors(t *testing.T) {
	a := matgen.Random(50, 200, 9)
	pl, err := NewPlan(a, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, a.Rows)
	if err := pl.Exec(make([]float64, a.Cols+1), y, ExecOptions{}); err == nil {
		t.Error("Exec accepted wrong x length")
	}
	if err := pl.Exec(make([]float64, a.Cols), y[:1], ExecOptions{}); err == nil {
		t.Error("Exec accepted wrong y length")
	}
	pl.Close()
	if err := pl.Exec(make([]float64, a.Cols), y, ExecOptions{}); err == nil {
		t.Error("Exec succeeded on a closed plan")
	}

	if _, err := NewPlan(a, reorder.Identity(1, 1), Options{}); err == nil {
		t.Error("NewPlan accepted a mis-shaped permutation")
	}
	bad := reorder.Identity(a.Rows, a.Cols)
	bad.Row[0] = bad.Row[1]
	if _, err := NewPlan(a, bad, Options{}); err == nil {
		t.Error("NewPlan accepted a non-bijective permutation")
	}
}

func TestCGSolvesGrid(t *testing.T) {
	a := matgen.Grid5Point(12, 13) // SPD, n = 156
	pl, err := NewPlan(a, nil, Options{CacheBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	b := randomVec(a.Rows, 6)
	res, err := pl.CG(b, CGOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iterations (residual %g)", res.Iterations, res.Residual)
	}
	// Check the solution directly: ‖b − Ax‖ / ‖b‖ within tolerance.
	ax := serialRef(a, res.X)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if rel := math.Sqrt(rr / bb); rel > 1e-7 {
		t.Fatalf("relative residual %g too large", rel)
	}

	// Byte-identical iterates at every worker count.
	res1, err := pl.CG(b, CGOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res8, err := pl.CG(b, CGOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.X, res.X) || !reflect.DeepEqual(res8.X, res.X) {
		t.Fatal("CG iterates differ across worker counts")
	}

	if _, err := pl.CG(b[:3], CGOptions{}); err == nil {
		t.Error("CG accepted wrong b length")
	}
}

func TestCGNonSquare(t *testing.T) {
	a := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 2}, Val: []float64{1, 1}}
	pl, err := NewPlan(a, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, err := pl.CG(make([]float64, 2), CGOptions{}); err == nil {
		t.Error("CG accepted a non-square matrix")
	}
}

// TestTimeLayouts: the layout timing reports positive ns/op for both
// layouts and the permuted plan's blocks, and rejects a permutation
// sized for another matrix.
func TestTimeLayouts(t *testing.T) {
	a := matgen.Random(300, 2500, 13)
	got, err := TimeLayouts(a, randomPerm(a, 6), 2, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	if got.NaturalNs <= 0 || got.PermutedNs <= 0 || got.Blocks < 1 {
		t.Fatalf("TimeLayouts = %+v, want positive ns/op and at least one block", got)
	}
	other := matgen.Random(200, 1500, 14)
	if _, err := TimeLayouts(a, randomPerm(other, 6), 1, nil); err == nil {
		t.Fatal("TimeLayouts accepted a permutation sized for another matrix")
	}
}
