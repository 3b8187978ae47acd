package spmv_test

import (
	"strings"
	"testing"

	"finegrain"
	"finegrain/internal/comm"
	"finegrain/internal/matgen"
	"finegrain/internal/rng"
	"finegrain/internal/spmv"
)

// TestPlanCountersMatchAnalyzer is the property the plan compiler must
// preserve: the word and message counters it precomputes from the
// routing table equal internal/comm's analytic volumes per phase, for
// every decomposition model, because both are derived from the same
// ownership structure. Checked for all three models on two catalog
// matrices.
func TestPlanCountersMatchAnalyzer(t *testing.T) {
	matrices := []string{"nl", "ken-11"}
	models := []string{"finegrain", "hypergraph", "graph", "medium_grain"}
	for _, name := range matrices {
		a, err := finegrain.Generate(name, 0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range models {
			dec, err := finegrain.DecomposeModel(model, a, 8, finegrain.Options{Seed: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, model, err)
			}
			pl, err := spmv.NewPlan(dec.Assignment)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, model, err)
			}
			ctr := pl.Counters()
			st, err := comm.Measure(dec.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			if ctr.ExpandWords != st.ExpandVolume || ctr.FoldWords != st.FoldVolume {
				t.Errorf("%s/%s: plan words %d/%d, analyzer %d/%d",
					name, model, ctr.ExpandWords, ctr.FoldWords, st.ExpandVolume, st.FoldVolume)
			}
			if ctr.ExpandMessages != st.ExpandMessages || ctr.FoldMessages != st.FoldMessages {
				t.Errorf("%s/%s: plan messages %d/%d, analyzer %d/%d",
					name, model, ctr.ExpandMessages, ctr.FoldMessages, st.ExpandMessages, st.FoldMessages)
			}
			// The realized execution must agree with the plan's counters —
			// they are the same numbers by construction, and Run's result
			// carries them through.
			x := make([]float64, a.Cols)
			r := rng.New(11)
			for i := range x {
				x[i] = r.Float64()*2 - 1
			}
			res, err := run(dec.Assignment, x)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalWords() != ctr.TotalWords() || res.TotalMessages() != ctr.TotalMessages() {
				t.Errorf("%s/%s: executed %d words / %d messages, plan says %d/%d",
					name, model, res.TotalWords(), res.TotalMessages(), ctr.TotalWords(), ctr.TotalMessages())
			}
			pl.Close()
		}
	}
}

// TestExecDeterministicAcrossWorkers: repeated Exec on one Plan must
// return byte-identical outputs for every Workers value — the
// accumulation order is fixed by the plan, not by scheduling.
func TestExecDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(99)
	a := matgen.Random(80, 600, 12)
	asg := randomAssignment(a, 7, r)
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = r.Float64()*4 - 2
	}
	want := make([]float64, a.Rows)
	if err := pl.Exec(x, want, spmv.ExecOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, a.Rows)
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		for trial := 0; trial < 3; trial++ {
			if err := pl.Exec(x, y, spmv.ExecOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("Workers=%d trial %d: y[%d] = %v, serial plan run got %v",
						workers, trial, i, y[i], want[i])
				}
			}
		}
	}
}

// TestExecMatchesRun: the compiled plan must reproduce the single-shot
// path (run: compile, execute once, discard) bit for bit.
func TestExecMatchesRun(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(60)
		a := matgen.Random(n, n*3, uint64(trial))
		asg := randomAssignment(a, 1+r.Intn(9), r)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		res, err := run(asg, x)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := spmv.NewPlan(asg)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, n)
		if err := pl.Exec(x, y, spmv.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if y[i] != res.Y[i] {
				t.Fatalf("trial %d: y[%d] = %v, Run got %v", trial, i, y[i], res.Y[i])
			}
		}
		pl.Close()
	}
}

// TestExecDoesNotAllocate asserts the tentpole guarantee: once the
// plan's workers are parked, Exec performs zero allocations.
func TestExecDoesNotAllocate(t *testing.T) {
	r := rng.New(21)
	a := matgen.Random(120, 900, 5)
	asg := randomAssignment(a, 8, r)
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = r.Float64()
	}
	y := make([]float64, a.Rows)
	for _, workers := range []int{1, 4} {
		opts := spmv.ExecOptions{Workers: workers}
		// Warm up so worker goroutines are spawned and parked.
		if err := pl.Exec(x, y, opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := pl.Exec(x, y, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Workers=%d: %v allocs per Exec, want 0", workers, allocs)
		}
	}
}

// TestPlanMisuse: dimension mismatches, Exec after Close, and nested
// Exec must all return errors, never corrupt state.
func TestPlanMisuse(t *testing.T) {
	r := rng.New(2)
	a := matgen.Random(10, 30, 9)
	asg := randomAssignment(a, 3, r)
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	if err := pl.Exec(x[:5], y, spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "columns") {
		t.Fatalf("short x: err = %v", err)
	}
	if err := pl.Exec(x, y[:5], spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "rows") {
		t.Fatalf("short y: err = %v", err)
	}
	if k := pl.K(); k != 3 {
		t.Fatalf("K() = %d", k)
	}
	if rows, cols := pl.Dims(); rows != a.Rows || cols != a.Cols {
		t.Fatalf("Dims() = %d, %d", rows, cols)
	}
	pl.Close()
	if err := pl.Exec(x, y, spmv.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("Exec after Close: err = %v", err)
	}
}
