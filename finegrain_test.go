package finegrain_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	finegrain "finegrain"
)

func smallMatrix() *finegrain.Matrix {
	// Arrowhead matrix: dense first row and column plus diagonal.
	coo := finegrain.NewCOO(32, 32)
	for i := 0; i < 32; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(0, i, 1)
			coo.Add(i, 0, 1)
		}
	}
	return coo.ToCSR()
}

func TestDecomposeAllModels(t *testing.T) {
	a := smallMatrix()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	type entry struct {
		name string
		fn   func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error)
	}
	for _, e := range []entry{
		{"2D", finegrain.Decompose2D},
		{"1D", finegrain.Decompose1D},
		{"1D-graph", finegrain.Decompose1DGraph},
	} {
		dec, err := e.fn(a, 4, finegrain.Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if dec.Stats.K != 4 {
			t.Fatalf("%s: K = %d", e.name, dec.Stats.K)
		}
		if !dec.Assignment.Symmetric() {
			t.Fatalf("%s: vector partition not symmetric", e.name)
		}
		if err := finegrain.Verify(a, dec, x); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
}

func TestCutsizeEqualsVolumeForHypergraphModels(t *testing.T) {
	a := smallMatrix()
	for _, fn := range []func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error){
		finegrain.Decompose2D, finegrain.Decompose1D, finegrain.DecomposeMediumGrain,
	} {
		dec, err := fn(a, 4, finegrain.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Cutsize != dec.Stats.TotalVolume {
			t.Fatalf("cutsize %d != volume %d", dec.Cutsize, dec.Stats.TotalVolume)
		}
	}
}

func TestGenerateCatalog(t *testing.T) {
	names := finegrain.CatalogNames()
	if len(names) != 14 {
		t.Fatalf("%d names", len(names))
	}
	a, err := finegrain.Generate("sherman3", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows == 0 || a.NNZ() == 0 {
		t.Fatal("empty matrix")
	}
	if _, err := finegrain.Generate("nope", 0.02, 1); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestGeneratedPipeline(t *testing.T) {
	a, err := finegrain.Generate("bcspwr10", 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.Decompose2D(a, 8, finegrain.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stats.ImbalancePct > 3.5 {
		t.Fatalf("imbalance %.2f%%", dec.Stats.ImbalancePct)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	if err := finegrain.Verify(a, dec, x); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyCountsWords(t *testing.T) {
	a := smallMatrix()
	dec, err := finegrain.Decompose2D(a, 4, finegrain.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	_, res := multiplyOnce(t, dec, x)
	if res.TotalWords() != dec.Stats.TotalVolume {
		t.Fatalf("simulator words %d, analyzer %d", res.TotalWords(), dec.Stats.TotalVolume)
	}
}

// TestVerifyRejectsNonFinite: a NaN matrix entry or an infinite input
// makes both sides of the comparison non-finite, where a plain
// |y − want| > bound test would pass. Verify must report it.
func TestVerifyRejectsNonFinite(t *testing.T) {
	a, err := finegrain.Generate("sherman3", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.Decompose2D(a, 4, finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	if err := finegrain.Verify(a, dec, x); err != nil {
		t.Fatal(err)
	}
	v0 := a.Val[0]
	a.Val[0] = math.NaN()
	if err := finegrain.Verify(a, dec, x); err == nil {
		t.Error("Verify passed a product with a NaN matrix entry")
	}
	a.Val[0] = v0
	x[0] = math.Inf(1)
	if err := finegrain.Verify(a, dec, x); err == nil {
		t.Error("Verify passed a product with an infinite input")
	}
}

func TestPartitionHypergraphFixed(t *testing.T) {
	a := smallMatrix()
	fg, err := finegrain.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	fixed := make([]int, fg.H.NumVertices())
	for i := range fixed {
		fixed[i] = -1
	}
	fixed[0] = 2
	p, err := finegrain.PartitionHypergraph(fg.H, 4, fixed, finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Parts[0] != 2 {
		t.Fatalf("fixed vertex moved to part %d", p.Parts[0])
	}
}

func TestReductionFacade(t *testing.T) {
	tasks := []finegrain.Task{
		{Inputs: []int{0, 1}, Outputs: []int{0}},
		{Inputs: []int{1, 2}, Outputs: []int{1}},
		{Inputs: []int{2, 3}, Outputs: []int{0, 1}},
	}
	rm, err := finegrain.BuildReduction(4, 2, tasks, finegrain.ReductionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := finegrain.PartitionHypergraph(rm.H, 2, rm.Fixed, finegrain.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := rm.Decode(p, finegrain.ReductionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vol := rm.Volume(tasks, dec); vol != p.CutsizeConnectivity(rm.H) {
		t.Fatalf("reduction volume %d != cutsize %d", vol, p.CutsizeConnectivity(rm.H))
	}
}

func TestMeasureFacade(t *testing.T) {
	a := smallMatrix()
	dec, err := finegrain.Decompose1D(a, 2, finegrain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := finegrain.Measure(dec.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalVolume != dec.Stats.TotalVolume {
		t.Fatal("re-measure disagrees")
	}
}

func TestFromEntries(t *testing.T) {
	a := finegrain.FromEntries(2, 2, []finegrain.Entry{{Row: 0, Col: 1, Val: 3}})
	if a.At(0, 1) != 3 {
		t.Fatal("FromEntries wrong")
	}
}

// TestMediumGrainDecompose covers the medium-grain facade: numeric
// verification, cutsize exactness (the house invariant), the recorded
// Model name, and bitwise determinism across worker counts.
func TestMediumGrainDecompose(t *testing.T) {
	a := smallMatrix()
	dec, err := finegrain.DecomposeMediumGrain(a, 4, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model != "medium_grain" {
		t.Fatalf("Model = %q, want medium_grain", dec.Model)
	}
	if dec.Cutsize != dec.Stats.TotalVolume {
		t.Fatalf("cutsize %d != volume %d", dec.Cutsize, dec.Stats.TotalVolume)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	if err := finegrain.Verify(a, dec, x); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		d2, err := finegrain.DecomposeMediumGrain(a, 4, finegrain.Options{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec.Assignment.NonzeroOwner {
			if d2.Assignment.NonzeroOwner[i] != dec.Assignment.NonzeroOwner[i] {
				t.Fatalf("Workers=%d: nonzero %d owner differs", workers, i)
			}
		}
		for i := range dec.Assignment.YOwner {
			if d2.Assignment.YOwner[i] != dec.Assignment.YOwner[i] ||
				d2.Assignment.XOwner[i] != dec.Assignment.XOwner[i] {
				t.Fatalf("Workers=%d: vector owner %d differs", workers, i)
			}
		}
	}
}

// TestAutoSelection pins the auto model's contract: the choice is a
// deterministic pure function of the matrix, recorded in
// Decomposition.Model as a concrete model name, and the auto
// decomposition is identical to an explicit decomposition of the
// chosen model.
func TestAutoSelection(t *testing.T) {
	a := smallMatrix()
	d := finegrain.SelectModel(a)
	if _, ok := finegrain.LookupModel(d.Model); !ok || d.Model == "auto" {
		t.Fatalf("SelectModel chose %q", d.Model)
	}
	if d.Reason == "" {
		t.Fatal("decision carries no reason")
	}
	for trial := 0; trial < 3; trial++ {
		if got := finegrain.SelectModel(a); got.Model != d.Model || got.Features != d.Features {
			t.Fatalf("selection not deterministic: %+v vs %+v", got, d)
		}
	}

	auto, err := finegrain.DecomposeModel("auto", a, 4, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Model != d.Model {
		t.Fatalf("auto recorded model %q, SelectModel chose %q", auto.Model, d.Model)
	}
	explicit, err := finegrain.DecomposeModel(d.Model, a, 4, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Cutsize != explicit.Cutsize || auto.Stats.TotalVolume != explicit.Stats.TotalVolume {
		t.Fatalf("auto (%d words) differs from explicit %s (%d words)",
			auto.Stats.TotalVolume, d.Model, explicit.Stats.TotalVolume)
	}
	for i := range auto.Assignment.NonzeroOwner {
		if auto.Assignment.NonzeroOwner[i] != explicit.Assignment.NonzeroOwner[i] {
			t.Fatalf("auto and explicit %s disagree at nonzero %d", d.Model, i)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		d2, err := finegrain.DecomposeModel("auto", a, 4, finegrain.Options{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d2.Model != auto.Model || d2.Cutsize != auto.Cutsize {
			t.Fatalf("Workers=%d: auto chose %q/cut %d, want %q/%d",
				workers, d2.Model, d2.Cutsize, auto.Model, auto.Cutsize)
		}
	}
}

// TestAutoSelectionBranches drives each branch of the selection policy
// with a matrix built to trigger it.
func TestAutoSelectionBranches(t *testing.T) {
	// Symmetric tridiagonal: symmetric, perfectly regular interior.
	tri := finegrain.NewCOO(64, 64)
	for i := 0; i < 64; i++ {
		tri.Add(i, i, 2)
		if i > 0 {
			tri.Add(i, i-1, -1)
			tri.Add(i-1, i, -1)
		}
	}
	if d := finegrain.SelectModel(tri.ToCSR()); d.Model != "hypergraph" {
		t.Fatalf("tridiagonal chose %q: %s", d.Model, d.Reason)
	}
	// Arrowhead: symmetric but one row holds half the nonzeros.
	if d := finegrain.SelectModel(smallMatrix()); d.Model != "finegrain" {
		t.Fatalf("arrowhead chose %q: %s", d.Model, d.Reason)
	}
	// Lower bidiagonal: regular but fully unsymmetric off-diagonal.
	bi := finegrain.NewCOO(64, 64)
	for i := 0; i < 64; i++ {
		bi.Add(i, i, 2)
		if i > 0 {
			bi.Add(i, i-1, 1)
		}
	}
	if d := finegrain.SelectModel(bi.ToCSR()); d.Model != "medium_grain" {
		t.Fatalf("bidiagonal chose %q: %s", d.Model, d.Reason)
	}
}

// TestSpGEMMFacade runs the spgemm registry models end to end: the
// cutsize must equal the measured volume, and the simulated executor
// must realize exactly the measured traffic while matching the serial
// product.
func TestSpGEMMFacade(t *testing.T) {
	a := smallMatrix()
	for _, model := range []string{"spgemm", "spgemm_1d"} {
		dec, err := finegrain.DecomposeModel(model, a, 4, finegrain.Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Model != model {
			t.Fatalf("Model = %q, want %q", dec.Model, model)
		}
		if dec.Assignment != nil || dec.SpGEMM == nil {
			t.Fatalf("%s: want nil Assignment and non-nil SpGEMM", model)
		}
		if dec.Cutsize != dec.Stats.TotalVolume {
			t.Fatalf("%s: cutsize %d != volume %d", model, dec.Cutsize, dec.Stats.TotalVolume)
		}
		res, err := finegrain.ExecuteSpGEMM(dec)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalWords() != dec.Stats.TotalVolume {
			t.Fatalf("%s: executor moved %d words, measured %d", model, res.TotalWords(), dec.Stats.TotalVolume)
		}
		if res.ExpandMessages != dec.Stats.ExpandMessages || res.FoldMessages != dec.Stats.FoldMessages {
			t.Fatalf("%s: executor messages %d/%d, measured %d/%d", model,
				res.ExpandMessages, res.FoldMessages, dec.Stats.ExpandMessages, dec.Stats.FoldMessages)
		}
		want, err := finegrain.MatMul(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for p := range want.Val {
			diff := res.C.Val[p] - want.Val[p]
			if diff < -1e-9 || diff > 1e-9 {
				t.Fatalf("%s: executed value %g at %d, serial %g", model, res.C.Val[p], p, want.Val[p])
			}
		}
	}
	// A non-spgemm decomposition has no SpGEMM assignment to execute.
	dec, err := finegrain.Decompose1D(a, 2, finegrain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := finegrain.ExecuteSpGEMM(dec); finegrain.ErrorCodeOf(err) != finegrain.BadModel {
		t.Fatalf("ExecuteSpGEMM on SpMV decomposition: %v", err)
	}
}

// TestDecomposeSpans pins the pipeline span names perfbench's layer
// roll-up and the partition server's traces read: every registry model
// emits finegrain/decompose and its four stage spans exactly once, and
// auto additionally records its selection.
func TestDecomposeSpans(t *testing.T) {
	a, err := finegrain.Generate("cq9", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"decompose", "build.model", "partition", "decode", "measure"}
	for _, m := range finegrain.Models() {
		tr := finegrain.NewTrace()
		if _, err := finegrain.DecomposeModel(m.Name, a, 4, finegrain.Options{Seed: 1, Trace: tr}); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
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
		got := map[string]int{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && ev.Cat == "finegrain" {
				got[ev.Name]++
			}
		}
		want := stages
		if m.Name == "auto" {
			want = append([]string{"auto.select"}, stages...)
		}
		for _, name := range want {
			if got[name] != 1 {
				t.Errorf("%s: finegrain/%s recorded %d times, want 1", m.Name, name, got[name])
			}
		}
	}
}
