package solver_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/hgpart"
	"finegrain/internal/kernel"
	"finegrain/internal/matgen"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
	"finegrain/internal/solver"
	"finegrain/internal/sparse"
	"finegrain/internal/spmv"
)

// spdSystem returns the 5-point Laplacian plus identity (strictly SPD)
// and a right-hand side.
func spdSystem(rows, cols int, seed uint64) (*sparse.CSR, []float64) {
	a := matgen.Grid5Point(rows, cols)
	coo := a.ToCOO()
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1) // diagonal shift
	}
	a = coo.ToCSR()
	r := rng.New(seed)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = r.Float64()*2 - 1
	}
	return a, b
}

func serialAssignment(a *sparse.CSR) *core.Assignment {
	return &core.Assignment{
		K: 1, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, a.Cols),
		YOwner:       make([]int, a.Rows),
	}
}

// refResult is the outcome of refCG.
type refResult struct {
	X          []float64
	Iterations int
	Residual   float64
	Converged  bool
}

// refCG is the plain scalar conjugate gradient every solve in the
// repository must reproduce bitwise: one multiply per iteration through
// exec, stopping at convergence, at MaxIter, or when pᵀAp ≤ 0.
func refCG(exec func(x, y []float64) error, b []float64, tol float64, maxIter int) (*refResult, error) {
	n := len(b)
	if tol <= 0 {
		tol = 1e-8
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	res := &refResult{X: make([]float64, n)}
	ap := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	rs := dot(r, r)
	bNorm := math.Sqrt(rs)
	if bNorm == 0 {
		res.Converged = true
		return res, nil
	}
	for res.Iterations < maxIter {
		if math.Sqrt(rs)/bNorm <= tol {
			break
		}
		if err := exec(p, ap); err != nil {
			return nil, err
		}
		pap := dot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rs / pap
		for i := 0; i < n; i++ {
			res.X[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := dot(r, r)
		beta := rsNew / rs
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
		res.Iterations++
	}
	res.Converged = math.Sqrt(rs)/bNorm <= tol
	res.Residual = math.Sqrt(rs)
	return res, nil
}

// refOnPlan runs refCG over the simulator plan's single multiply.
func refOnPlan(t *testing.T, pl *spmv.Plan, b []float64, tol float64, maxIter int) *refResult {
	t.Helper()
	ref, err := refCG(func(x, y []float64) error { return pl.Exec(x, y, spmv.ExecOptions{}) }, b, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// compile compiles asg into a simulator plan closed at test end.
func compile(t *testing.T, asg *core.Assignment) *spmv.Plan {
	t.Helper()
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)
	return pl
}

// solve1 runs a one-right-hand-side block solve on asg.
func solve1(t *testing.T, asg *core.Assignment, b []float64, opts solver.BlockCGOptions) *solver.BlockCGResult {
	t.Helper()
	res, err := solver.BlockCG(compile(t, asg), asg.K, b, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// matchesRef fails unless right-hand side v of blk is bitwise the
// reference trajectory.
func matchesRef(t *testing.T, label string, blk *solver.BlockCGResult, v int, ref *refResult) {
	t.Helper()
	rows := len(ref.X)
	if blk.Iterations[v] != ref.Iterations || blk.Converged[v] != ref.Converged || blk.Residuals[v] != ref.Residual {
		t.Errorf("%s vector %d: iterations/converged/residual %d/%v/%g, reference %d/%v/%g", label, v,
			blk.Iterations[v], blk.Converged[v], blk.Residuals[v], ref.Iterations, ref.Converged, ref.Residual)
	}
	if !reflect.DeepEqual(blk.X[v*rows:(v+1)*rows], ref.X) {
		t.Errorf("%s vector %d: X differs bitwise from the reference", label, v)
	}
}

func TestCGSolvesSerial(t *testing.T) {
	a, b := spdSystem(12, 12, 1)
	res := solve1(t, serialAssignment(a), b, solver.BlockCGOptions{Tol: 1e-10})
	if !res.Converged[0] {
		t.Fatalf("did not converge in %d iterations (residual %g)", res.Iterations[0], res.Residuals[0])
	}
	// Check A·x ≈ b directly.
	y := make([]float64, a.Rows)
	a.MulVec(res.X, y)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-7 {
			t.Fatalf("residual at %d: %g", i, y[i]-b[i])
		}
	}
	if res.SpMVWords != 0 || res.AllreduceWords != 0 {
		t.Fatalf("serial solve should move no words, got %d/%d", res.SpMVWords, res.AllreduceWords)
	}
}

func TestCGDistributedMatchesSerial(t *testing.T) {
	a, b := spdSystem(10, 14, 2)
	serial := solve1(t, serialAssignment(a), b, solver.BlockCGOptions{Tol: 1e-10})
	fg, err := core.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := hgpart.Partition(fg.H, 4, hgpart.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	asg, err := fg.Decode2D(p)
	if err != nil {
		t.Fatal(err)
	}
	dist := solve1(t, asg, b, solver.BlockCGOptions{Tol: 1e-10})
	if !dist.Converged[0] {
		t.Fatalf("distributed CG did not converge (residual %g)", dist.Residuals[0])
	}
	for i := range serial.X {
		if math.Abs(serial.X[i]-dist.X[i]) > 1e-6 {
			t.Fatalf("solutions diverge at %d: %g vs %g", i, serial.X[i], dist.X[i])
		}
	}
	// Communication accounting: words per iteration equal the
	// decomposition's volume; two all-reduces per iteration plus one
	// upfront.
	st := p.CutsizeConnectivity(fg.H)
	if dist.SpMVWords != dist.Iterations[0]*st {
		t.Fatalf("spmv words %d, want iterations %d × volume %d", dist.SpMVWords, dist.Iterations[0], st)
	}
	wantAll := (2*dist.Iterations[0] + 1) * 2 * (asg.K - 1)
	if dist.AllreduceWords != wantAll {
		t.Fatalf("allreduce words %d, want %d", dist.AllreduceWords, wantAll)
	}
	if dist.TotalWords() != dist.SpMVWords+dist.AllreduceWords {
		t.Fatal("TotalWords inconsistent")
	}
}

func TestCGZeroRHS(t *testing.T) {
	a, _ := spdSystem(5, 5, 3)
	res := solve1(t, serialAssignment(a), make([]float64, a.Rows), solver.BlockCGOptions{})
	if !res.Converged[0] || res.Iterations[0] != 0 {
		t.Fatal("zero RHS should converge immediately")
	}
	for _, x := range res.X {
		if x != 0 {
			t.Fatal("solution should be zero")
		}
	}
}

// TestCGMaxIter: MaxIter bounds every right-hand side, alone (n = 1)
// and inside a block, and the truncated trajectories are the
// reference's.
func TestCGMaxIter(t *testing.T) {
	a, b := spdSystem(16, 16, 4)
	pl := compile(t, serialAssignment(a))
	opts := solver.BlockCGOptions{Tol: 1e-14, MaxIter: 2}
	res, err := solver.BlockCG(pl, 1, b, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged[0] {
		t.Fatal("2 iterations should not converge to 1e-14")
	}
	if res.Iterations[0] != 2 || res.BlockIterations != 2 {
		t.Fatalf("iterations %d, block iterations %d", res.Iterations[0], res.BlockIterations)
	}
	matchesRef(t, "n=1", res, 0, refOnPlan(t, pl, b, 1e-14, 2))

	const n = 3
	B := stackedRHS(a.Rows, n, 4)
	blk, err := solver.BlockCG(pl, 1, B, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if blk.BlockIterations != 2 {
		t.Fatalf("block iterations %d, want MaxIter 2", blk.BlockIterations)
	}
	for v := 0; v < n; v++ {
		matchesRef(t, "block", blk, v, refOnPlan(t, pl, B[v*a.Rows:(v+1)*a.Rows], 1e-14, 2))
	}
}

// TestCGErrors: a short right-hand side and a non-square operator are
// rejected (TestBlockCGErrors covers block widths).
func TestCGErrors(t *testing.T) {
	a, b := spdSystem(4, 4, 5)
	if _, err := solver.BlockCG(compile(t, serialAssignment(a)), 1, b[:3], 1, solver.BlockCGOptions{}); err == nil {
		t.Error("short RHS accepted")
	}
	rect := sparse.FromEntries(2, 3, []sparse.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 2, Val: 1}})
	rasg := &core.Assignment{K: 1, A: rect, NonzeroOwner: make([]int, 2), XOwner: make([]int, 3), YOwner: make([]int, 2)}
	if _, err := solver.BlockCG(compile(t, rasg), 1, make([]float64, 2), 1, solver.BlockCGOptions{}); err == nil {
		t.Error("non-square operator accepted")
	}
}

// TestCGNonSPDStopsGracefully: on an indefinite matrix the solve stops
// at the breakdown without diverging or erroring, with n = 1 and for a
// right-hand side that breaks down inside a block while the others
// converge — the broken vector freezes at its iterate and stays
// unconverged, the others keep iterating, and every trajectory is the
// reference's.
func TestCGNonSPDStopsGracefully(t *testing.T) {
	a := sparse.FromEntries(2, 2, []sparse.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	res := solve1(t, serialAssignment(a), []float64{0, 1}, solver.BlockCGOptions{MaxIter: 50})
	if res.Iterations[0] > 50 {
		t.Fatal("ran past MaxIter")
	}
	if res.Converged[0] || res.Iterations[0] != 0 || res.Residuals[0] != 1 {
		t.Fatalf("breakdown: converged=%v iterations=%d residual=%g, want frozen at x=0",
			res.Converged[0], res.Iterations[0], res.Residuals[0])
	}

	// Mixed block: an SPD grid block plus one negative diagonal entry.
	// Right-hand sides on the grid converge; the one on the negative
	// entry breaks down (pᵀAp < 0) in the first sweep.
	g, _ := spdSystem(6, 7, 1)
	rows := g.Rows + 1
	m := sparse.NewCOO(rows, rows)
	for _, e := range g.ToCOO().Entries {
		m.Add(e.Row, e.Col, e.Val)
	}
	m.Add(g.Rows, g.Rows, -1)
	mixed := m.ToCSR()
	const n, bad, k = 3, 1, 4
	B := stackedRHS(rows, n, 11) // vector 2 is zero
	for v := 0; v < n; v++ {
		B[v*rows+g.Rows] = 0
	}
	for i := 0; i < rows; i++ {
		B[bad*rows+i] = 0
	}
	B[bad*rows+g.Rows] = 2
	pl := compile(t, serialAssignment(mixed))
	blk, err := solver.BlockCG(pl, k, B, n, solver.BlockCGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Converged[bad] || blk.Iterations[bad] != 0 || blk.Residuals[bad] != 2 {
		t.Fatalf("broken vector: converged=%v iterations=%d residual=%g, want frozen unconverged at x=0",
			blk.Converged[bad], blk.Iterations[bad], blk.Residuals[bad])
	}
	if !blk.Converged[0] || blk.BlockIterations != blk.Iterations[0] || blk.BlockIterations < 2 {
		t.Fatalf("vector 0: converged=%v iterations=%d over %d sweeps — the block must keep going",
			blk.Converged[0], blk.Iterations[0], blk.BlockIterations)
	}
	for v := 0; v < n; v++ {
		matchesRef(t, "mixed", blk, v, refOnPlan(t, pl, B[v*rows:(v+1)*rows], 1e-10, 0))
	}
	// All-reduce scalars: n up front, then pᵀAp and rᵀr per update of
	// each live vector; the broken vector pays its pᵀAp round and drops
	// out before the rᵀr round.
	scalars := n + 1
	for v := 0; v < n; v++ {
		scalars += 2 * blk.Iterations[v]
	}
	if want := 2 * (k - 1) * scalars; blk.AllreduceWords != want {
		t.Errorf("allreduce words %d, want %d", blk.AllreduceWords, want)
	}
}

// TestKernelCGMatchesReference: kernel.Plan.CG runs the shared block
// loop with one right-hand side and is bitwise the reference CG over
// kernel.Plan.Exec, at every worker count and for a truncated solve.
// Its trace holds exactly one kernel "cg" span and one kernel "exec"
// span per multiply, and no solver spans.
func TestKernelCGMatchesReference(t *testing.T) {
	a, b := spdSystem(12, 13, 6)
	kpl, err := kernel.NewPlan(a, nil, kernel.Options{CacheBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer kpl.Close()
	for _, c := range []struct {
		workers, maxIter int
	}{{1, 0}, {2, 0}, {8, 0}, {2, 3}} {
		exec := func(x, y []float64) error { return kpl.Exec(x, y, kernel.ExecOptions{Workers: c.workers}) }
		ref, err := refCG(exec, b, 1e-10, c.maxIter)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		got, err := kpl.CG(b, kernel.CGOptions{Tol: 1e-10, MaxIter: c.maxIter, Workers: c.workers, Track: tr.NewTrack("cg")})
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != ref.Iterations || got.Converged != ref.Converged || got.Residual != ref.Residual ||
			!reflect.DeepEqual(got.X, ref.X) {
			t.Fatalf("workers=%d maxIter=%d: kernel CG differs from the reference (%d/%v/%g vs %d/%v/%g)",
				c.workers, c.maxIter, got.Iterations, got.Converged, got.Residual,
				ref.Iterations, ref.Converged, ref.Residual)
		}
		spans := spanCounts(t, tr)
		want := map[string]int{"kernel/cg": 1, "kernel/exec": got.Iterations}
		if !reflect.DeepEqual(spans, want) {
			t.Fatalf("workers=%d maxIter=%d: spans %v, want %v", c.workers, c.maxIter, spans, want)
		}
	}
}

// spanCounts tallies a trace's complete spans by "category/name".
func spanCounts(t *testing.T, tr *obs.Trace) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Cat, Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			out[ev.Cat+"/"+ev.Name]++
		}
	}
	return out
}
