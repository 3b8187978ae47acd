package experiments

import (
	"bytes"
	"strings"
	"testing"

	finegrain "finegrain"
	"finegrain/internal/matgen"
)

func TestFigure1MatrixStructure(t *testing.T) {
	a := Figure1Matrix()
	if a.Rows != 5 || a.Cols != 5 {
		t.Fatalf("dims %dx%d", a.Rows, a.Cols)
	}
	// Row i=1 (m_i) has 4 entries; column j=2 (n_j) has 3.
	if a.RowNNZ(1) != 4 {
		t.Fatalf("|m_i| = %d", a.RowNNZ(1))
	}
	csc := a.ToCSC()
	if csc.ColNNZ(2) != 3 {
		t.Fatalf("|n_j| = %d", csc.ColNNZ(2))
	}
}

func TestWriteFigure1(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigure1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"n_j (size 3)",
		"m_i (size 4)",
		"v_ij",
		"v_jj",
		"v_lj",
		"consistency",
		"checked: true",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(0.02)
	if len(rows) != 14 {
		t.Fatalf("%d rows, want 14", len(rows))
	}
	for _, r := range rows {
		if r.Stats.NNZ == 0 {
			t.Fatalf("%s: empty", r.Spec.Name)
		}
		if r.Stats.Rows != r.Spec.N {
			t.Fatalf("%s: %d rows, want %d", r.Spec.Name, r.Stats.Rows, r.Spec.N)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	out := buf.String()
	for _, name := range []string{"sherman3", "finan512", "ken-11"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 output missing %s", name)
		}
	}
}

func TestMatrixSeedStable(t *testing.T) {
	if MatrixSeed("ken-11") != MatrixSeed("ken-11") {
		t.Fatal("seed not stable")
	}
	if MatrixSeed("ken-11") == MatrixSeed("ken-13") {
		t.Fatal("different names share a seed")
	}
}

func TestRunInstanceAllModels(t *testing.T) {
	spec, _ := matgen.Lookup("sherman3")
	a := spec.Scaled(0.05).Generate(MatrixSeed("sherman3"))
	for _, m := range Models() {
		res, err := RunInstance(a, 4, m, finegrain.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Stats.TotalVolume < 0 || res.ScaledTot < 0 {
			t.Fatalf("%s: negative volume", m)
		}
		if res.Imbalance > 10 {
			t.Fatalf("%s: imbalance %.1f%%", m, res.Imbalance)
		}
		if res.Seconds <= 0 {
			t.Fatalf("%s: no time recorded", m)
		}
		// The hypergraph models' cutsize equals the measured volume
		// (the paper's theorem); the graph model's cut only
		// approximates it.
		if m != "graph" && res.Cutsize != res.Stats.TotalVolume {
			t.Fatalf("%s: cutsize %d != volume %d", m, res.Cutsize, res.Stats.TotalVolume)
		}
	}
}

func TestRunAveraged(t *testing.T) {
	spec, _ := matgen.Lookup("bcspwr10")
	a := spec.Scaled(0.05).Generate(MatrixSeed("bcspwr10"))
	avg, err := RunAveraged(a, 4, "hypergraph", 3, finegrain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if avg.Runs != 3 {
		t.Fatalf("runs %d", avg.Runs)
	}
	if avg.ScaledTot <= 0 {
		t.Fatal("no volume")
	}
}

func TestTable2SmallSweep(t *testing.T) {
	cfg := Table2Config{
		Scale:    0.03,
		Ks:       []int{4},
		Seeds:    1,
		Matrices: []string{"sherman3", "ken-11"},
	}
	res, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*1*3 {
		t.Fatalf("%d cells, want 6", len(res.Cells))
	}
	if res.Overall["finegrain"] == nil || res.PerK[4]["graph"] == nil {
		t.Fatal("averages missing")
	}
	var buf bytes.Buffer
	WriteTable2(&buf, res)
	out := buf.String()
	for _, want := range []string{"sherman3", "ken-11", "average", "overall", "headline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q", want)
		}
	}
}

func TestTable2UnknownMatrix(t *testing.T) {
	if _, err := Table2(Table2Config{Matrices: []string{"bogus"}}); err == nil {
		t.Fatal("unknown matrix accepted")
	}
}

// TestModelOrderingLPFamily asserts the paper's headline shape on a
// ken-profile matrix: the fine-grain model's total volume is
// substantially below the 1D hypergraph model's, which is at or below
// the graph model's (with slack for heuristic noise).
func TestModelOrderingLPFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("partitioning sweep")
	}
	spec, _ := matgen.Lookup("ken-11")
	a := spec.Scaled(0.1).Generate(MatrixSeed("ken-11"))
	k := 16
	volumes := map[Model]float64{}
	for _, m := range Models() {
		avg, err := RunAveraged(a, k, m, 2, finegrain.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		volumes[m] = avg.ScaledTot
	}
	if volumes["finegrain"] >= volumes["hypergraph"]*0.75 {
		t.Fatalf("fine-grain %.3f not clearly below 1D hypergraph %.3f on an LP matrix",
			volumes["finegrain"], volumes["hypergraph"])
	}
	if volumes["hypergraph"] > volumes["graph"]*1.15 {
		t.Fatalf("1D hypergraph %.3f worse than graph %.3f beyond slack",
			volumes["hypergraph"], volumes["graph"])
	}
}

// TestModelStrings pins the harness's model names to the registry:
// every model but the checkerboard baseline is a canonical registry
// name.
func TestModelStrings(t *testing.T) {
	if len(Models()) != 3 {
		t.Fatal("model list wrong")
	}
	for _, m := range append(Models(), ComparisonModels()...) {
		if rm, ok := finegrain.LookupModel(m); !ok || rm.Name != m {
			t.Fatalf("model %q is not a canonical registry name", m)
		}
	}
}

func TestCheckerboardInstance(t *testing.T) {
	spec, _ := matgen.Lookup("cq9")
	a := spec.Scaled(0.05).Generate(MatrixSeed("cq9"))
	res, err := RunInstance(a, 16, "checkerboard", finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalVolume <= 0 {
		t.Fatal("checkerboard decomposition communicates nothing?")
	}
	// Structural message bound of the grid scheme: each processor
	// talks only within its grid row and column, so the average stays
	// below (P−1) + (Q−1) per phase summed over both phases.
	if res.AvgMsgs > float64(2*((4-1)+(4-1))) {
		t.Fatalf("checkerboard avg msgs %.1f exceeds grid bound", res.AvgMsgs)
	}
	// The blocking baseline must not beat the fine-grain model (it
	// makes no communication-minimization effort).
	fg, err := RunInstance(a, 16, "finegrain", finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalVolume < fg.Stats.TotalVolume {
		t.Fatalf("checkerboard (%d) beat fine-grain (%d)",
			res.Stats.TotalVolume, fg.Stats.TotalVolume)
	}
	if len(AllModels()) != 4 {
		t.Fatal("AllModels should list 4 models")
	}
}
