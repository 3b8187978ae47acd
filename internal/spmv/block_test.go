package spmv_test

import (
	"strings"
	"testing"

	"finegrain"
	"finegrain/internal/core"
	"finegrain/internal/matgen"
	"finegrain/internal/rng"
	"finegrain/internal/spmv"
)

// TestExecBlockMatchesExec is the tentpole property: ExecBlock on n
// stacked right-hand sides is bitwise equal to n independent Exec
// calls, at every width and worker count, on real decompositions of two
// catalog matrices under two models and on a random assignment large
// enough to fan out. The block path reorders nothing — it only widens
// every compiled copy to n words, and n = 1 runs Exec's own kernels —
// so equality is exact, not approximate.
func TestExecBlockMatchesExec(t *testing.T) {
	type plan struct {
		name string
		asg  *core.Assignment
	}
	var cases []plan
	for _, name := range []string{"nl", "ken-11"} {
		a, err := finegrain.Generate(name, 0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"finegrain", "hypergraph"} {
			dec, err := finegrain.DecomposeModel(model, a, 8, finegrain.Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, model, err)
			}
			cases = append(cases, plan{name + "/" + model, dec.Assignment})
		}
	}
	cases = append(cases, plan{"random", randomAssignment(matgen.Random(400, 12000, 5), 8, rng.New(17))})
	const maxN = 16
	for _, c := range cases {
		a := c.asg.A
		pl, err := spmv.NewPlan(c.asg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r := rng.New(11)
		X := make([]float64, maxN*a.Cols)
		for i := range X {
			X[i] = r.Float64()*2 - 1
		}
		// Reference: independent single-RHS runs.
		want := make([]float64, maxN*a.Rows)
		for v := 0; v < maxN; v++ {
			if err := pl.Exec(X[v*a.Cols:(v+1)*a.Cols], want[v*a.Rows:(v+1)*a.Rows], spmv.ExecOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		Y := make([]float64, maxN*a.Rows)
		for _, n := range []int{1, 2, 5, 7, 8, 9, 16} {
			Yn := Y[:n*a.Rows]
			for _, workers := range []int{1, 2, 8} {
				for i := range Yn {
					Yn[i] = -1
				}
				if err := pl.ExecBlock(X[:n*a.Cols], Yn, n, spmv.ExecOptions{Workers: workers}); err != nil {
					t.Fatal(err)
				}
				for i := range Yn {
					if Yn[i] != want[i] {
						t.Fatalf("%s n=%d workers=%d: Y[%d] = %v, %d single Execs got %v",
							c.name, n, workers, i, Yn[i], n, want[i])
					}
				}
			}
		}
		pl.Close()
	}
}

// TestBlockCountersAmortization pins the acceptance criterion: a block
// multiply with n=8 right-hand sides sends exactly the message count of
// one single-RHS SpMV — the routing table is independent of n — while
// the moved words scale by n. Counters() stays the per-RHS figure.
func TestBlockCountersAmortization(t *testing.T) {
	a, err := finegrain.Generate("nl", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.DecomposeModel("finegrain", a, 8, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spmv.NewPlan(dec.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	single := pl.Counters()
	if single.TotalMessages() == 0 || single.TotalWords() == 0 {
		t.Fatalf("degenerate decomposition: %+v", single)
	}
	const n = 8
	block := pl.BlockCounters(n)
	if block.TotalMessages() != single.TotalMessages() {
		t.Errorf("block messages = %d, want the single-SpMV count %d (messages must not scale with n)",
			block.TotalMessages(), single.TotalMessages())
	}
	if block.ExpandMessages != single.ExpandMessages || block.FoldMessages != single.FoldMessages {
		t.Errorf("per-phase messages changed: block %d/%d, single %d/%d",
			block.ExpandMessages, block.FoldMessages, single.ExpandMessages, single.FoldMessages)
	}
	if block.ExpandWords != n*single.ExpandWords || block.FoldWords != n*single.FoldWords {
		t.Errorf("block words = %d/%d, want n× the single words %d/%d",
			block.ExpandWords, block.FoldWords, single.ExpandWords, single.FoldWords)
	}
	// Words per RHS is the single-RHS figure by construction.
	if block.TotalWords()/n != single.TotalWords() {
		t.Errorf("words per RHS = %d, want %d", block.TotalWords()/n, single.TotalWords())
	}
}

// TestExecBlockDoesNotAllocate: at a fixed n the block scratch is
// compiled once and reused — steady-state ExecBlock allocates nothing,
// the same guarantee Exec gives. At n = 1 the call runs in the plan's
// own buffers and never sizes the block scratch at all.
func TestExecBlockDoesNotAllocate(t *testing.T) {
	r := rng.New(21)
	a := matgen.Random(120, 900, 5)
	asg := randomAssignment(a, 8, r)
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	for _, n := range []int{1, 4} {
		X := make([]float64, n*a.Cols)
		for i := range X {
			X[i] = r.Float64()
		}
		Y := make([]float64, n*a.Rows)
		for _, workers := range []int{1, 4} {
			opts := spmv.ExecOptions{Workers: workers}
			// Warm up: grows the block scratch and parks the workers.
			if err := pl.ExecBlock(X, Y, n, opts); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := pl.ExecBlock(X, Y, n, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("n=%d Workers=%d: %v allocs per ExecBlock, want 0", n, workers, allocs)
			}
		}
		if c := spmv.BlockCap(pl); n == 1 && c != 0 {
			t.Errorf("block scratch sized for n=%d after n=1 calls, want unallocated", c)
		}
	}
}

// TestExecBlockMisuse: dimension and width mismatches, block calls on a
// closed plan, and n growth (scratch re-widening mid-life) all behave.
func TestExecBlockMisuse(t *testing.T) {
	r := rng.New(2)
	a := matgen.Random(10, 30, 9)
	asg := randomAssignment(a, 3, r)
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	X := make([]float64, 2*a.Cols)
	Y := make([]float64, 2*a.Rows)
	if err := pl.ExecBlock(X, Y, 0, spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "right-hand sides") {
		t.Fatalf("n=0: err = %v", err)
	}
	if err := pl.ExecBlock(X[:5], Y, 2, spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "n*cols") {
		t.Fatalf("short X: err = %v", err)
	}
	if err := pl.ExecBlock(X, Y[:5], 2, spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "n*rows") {
		t.Fatalf("short Y: err = %v", err)
	}
	// Widths may shrink and grow across calls on one plan.
	for _, n := range []int{2, 1, 3} {
		Xn := make([]float64, n*a.Cols)
		for i := range Xn {
			Xn[i] = r.Float64()
		}
		Yn := make([]float64, n*a.Rows)
		if err := pl.ExecBlock(Xn, Yn, n, spmv.ExecOptions{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for v := 0; v < n; v++ {
			want := make([]float64, a.Rows)
			if err := pl.Exec(Xn[v*a.Cols:(v+1)*a.Cols], want, spmv.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if Yn[v*a.Rows+i] != want[i] {
					t.Fatalf("n=%d vector %d: Y[%d] = %v, want %v", n, v, i, Yn[v*a.Rows+i], want[i])
				}
			}
		}
	}
	pl.Close()
	if err := pl.ExecBlock(X, Y, 2, spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("ExecBlock after Close: err = %v", err)
	}
}
