package finegrain_test

import (
	"testing"

	finegrain "finegrain"
	"finegrain/internal/experiments"
)

// TestIntegrationCatalogPipeline runs the complete pipeline — generate,
// decompose with every model, analyze, execute, verify — on every
// catalog matrix at a tiny scale. This is the cross-module end-to-end
// net under everything else.
func TestIntegrationCatalogPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog sweep")
	}
	for _, name := range finegrain.CatalogNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			a, err := finegrain.Generate(name, 0.02, experiments.MatrixSeed(name))
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, a.Cols)
			for i := range x {
				x[i] = 1 / float64(i+1)
			}
			k := 4
			for _, m := range []struct {
				label string
				fn    func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error)
			}{
				{"2d", finegrain.Decompose2D},
				{"1d", finegrain.Decompose1D},
				{"graph", finegrain.Decompose1DGraph},
			} {
				dec, err := m.fn(a, k, finegrain.Options{Seed: 9})
				if err != nil {
					t.Fatalf("%s: %v", m.label, err)
				}
				if err := finegrain.Verify(a, dec, x); err != nil {
					t.Fatalf("%s: %v", m.label, err)
				}
				if dec.Stats.ImbalancePct > 8 {
					t.Fatalf("%s: imbalance %.1f%% at tiny scale", m.label, dec.Stats.ImbalancePct)
				}
				if !dec.Assignment.Symmetric() {
					t.Fatalf("%s: asymmetric vector partition", m.label)
				}
			}
		})
	}
}

// TestIntegrationSaveLoadExecute round-trips a decomposition through
// JSON and executes the reloaded copy.
func TestIntegrationSaveLoadExecute(t *testing.T) {
	a, err := finegrain.Generate("bcspwr10", 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.Decompose2D(a, 8, finegrain.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dec.json"
	if err := finegrain.SaveAssignment(path, dec.Assignment); err != nil {
		t.Fatal(err)
	}
	asg, err := finegrain.LoadAssignment(path, a)
	if err != nil {
		t.Fatal(err)
	}
	st, err := finegrain.Measure(asg)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalVolume != dec.Stats.TotalVolume {
		t.Fatalf("reloaded volume %d, original %d", st.TotalVolume, dec.Stats.TotalVolume)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i)
	}
	_, res := multiplyOnce(t, &finegrain.Decomposition{Assignment: asg, Stats: st}, x)
	if res.TotalWords() != st.TotalVolume {
		t.Fatal("reloaded decomposition moved a different word count")
	}
}

// TestIntegrationCGAcrossModels solves the same SPD system through all
// three decompositions and requires identical convergence behavior.
func TestIntegrationCGAcrossModels(t *testing.T) {
	coo := finegrain.NewCOO(400, 400)
	for i := 0; i < 400; i++ {
		coo.Add(i, i, 5)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
		if i >= 20 {
			coo.Add(i, i-20, -1)
			coo.Add(i-20, i, -1)
		}
	}
	a := coo.ToCSR()
	b := make([]float64, 400)
	for i := range b {
		b[i] = 1
	}
	var iters []int
	for _, fn := range []func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error){
		finegrain.Decompose2D, finegrain.Decompose1D, finegrain.Decompose1DGraph,
	} {
		dec, err := fn(a, 4, finegrain.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(b, 1, finegrain.SolveOptions{Tol: 1e-9})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllConverged() {
			t.Fatal("CG did not converge")
		}
		iters = append(iters, res.Iterations[0])
	}
	// The decomposition must not change the mathematics: iteration
	// counts agree across models.
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[0] {
			t.Fatalf("iteration counts differ across decompositions: %v", iters)
		}
	}
}

// TestIntegrationRectangularReduction exercises the rectangular
// (non-symmetric) fine-grain variant end to end.
func TestIntegrationRectangularReduction(t *testing.T) {
	coo := finegrain.NewCOO(50, 80)
	for i := 0; i < 50; i++ {
		coo.Add(i, i, 1)
		coo.Add(i, (i*3+7)%80, 1)
		coo.Add(i, 50+(i%30), 1)
	}
	a := coo.ToCSR()
	rf, err := finegrain.BuildRectFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := finegrain.PartitionHypergraph(rf.H, 5, nil, finegrain.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	asg, err := rf.Decode2D(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := finegrain.Measure(asg)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalVolume != p.CutsizeConnectivity(rf.H) {
		t.Fatalf("volume %d != cutsize %d on a rectangular matrix",
			st.TotalVolume, p.CutsizeConnectivity(rf.H))
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	y, _ := multiplyOnce(t, &finegrain.Decomposition{Assignment: asg, Stats: st}, x)
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	for i := range want {
		if diff := y[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("y[%d] off by %g", i, diff)
		}
	}
}

// multiplyOnce opens a session on dec, multiplies x once, and returns y
// with the words and messages that multiply moved.
func multiplyOnce(t *testing.T, dec *finegrain.Decomposition, x []float64) ([]float64, finegrain.SpMVResult) {
	t.Helper()
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	y := make([]float64, dec.Assignment.A.Rows)
	if err := s.Multiply(x, y, finegrain.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	return y, s.Counters()
}
