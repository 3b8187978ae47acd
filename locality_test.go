package finegrain_test

import (
	"reflect"
	"testing"

	finegrain "finegrain"
	"finegrain/internal/kernel"
	"finegrain/internal/spmv"
)

// TestLocalityKernelBitwiseMatchesSimulator is the cross-layer
// equivalence property of the locality subsystem: the real
// multithreaded kernel, compiled over the cache-blocking permutation
// and mapped back through the inverse permutation, produces output
// bitwise-identical to the distributed simulator's — across models,
// matrices, and worker counts. It holds because every 1D rowwise
// decomposition computes each row on one simulated processor in
// original CSR order, and the kernel pins each row's accumulation to
// the same order whatever the permutation. Run under -race by make
// race, this is also the kernel's concurrency test at worker counts
// beyond GOMAXPROCS.
func TestLocalityKernelBitwiseMatchesSimulator(t *testing.T) {
	models := []struct {
		label string
		fn    func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error)
	}{
		{"locality", finegrain.DecomposeLocality},
		{"hypergraph", finegrain.Decompose1D},
		{"graph", finegrain.Decompose1DGraph},
	}
	for _, mat := range []string{"nl", "ken-11"} {
		a, err := finegrain.Generate(mat, 0.05, 42)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		for _, m := range models {
			t.Run(mat+"/"+m.label, func(t *testing.T) {
				dec, err := m.fn(a, 8, finegrain.Options{Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				s, err := finegrain.NewSession(dec, finegrain.SessionOptions{CompileLocal: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()

				pl, err := spmv.NewPlan(dec.Assignment)
				if err != nil {
					t.Fatal(err)
				}
				defer pl.Close()

				ySim := make([]float64, a.Rows)
				yKer := make([]float64, a.Rows)
				for _, workers := range []int{1, 2, 8} {
					if err := pl.Exec(x, ySim, spmv.ExecOptions{Workers: workers}); err != nil {
						t.Fatal(err)
					}
					if err := s.MultiplyLocal(x, yKer, finegrain.ExecOptions{Workers: workers}); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(yKer, ySim) {
						t.Fatalf("workers=%d: kernel output differs bitwise from simulator", workers)
					}
				}
			})
		}
	}
}

// TestLocalityNaturalOrderIdentical pins the drop-in property: a
// session's permuted local multiply computes the same bytes as a
// natural-order kernel plan.
func TestLocalityNaturalOrderIdentical(t *testing.T) {
	a, err := finegrain.Generate("nl", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.DecomposeLocality(a, 8, finegrain.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	natural, err := kernel.NewPlan(a, nil, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer natural.Close()
	permuted, err := finegrain.NewSession(dec, finegrain.SessionOptions{CompileLocal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer permuted.Close()

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	yn := make([]float64, a.Rows)
	if err := natural.Exec(x, yn, kernel.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	yp := make([]float64, a.Rows)
	if err := permuted.MultiplyLocal(x, yp, finegrain.ExecOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(yn, yp) {
		t.Fatal("permuted multiplier output differs bitwise from natural order")
	}
}

// TestLocalityReorderedMatrixVerifies checks the Reorder surface: the
// permuted matrix is a valid CSR with the same size, and DecomposeModel
// accepts the registry spellings.
func TestLocalityReorderedMatrixVerifies(t *testing.T) {
	a, err := finegrain.Generate("ken-11", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := finegrain.DecomposeModel("cache", a, 4, finegrain.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, perm, err := finegrain.Reorder(dec, finegrain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("reordered matrix invalid: %v", err)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatalf("reorder changed shape: %v -> %v", a, b)
	}
	if err := perm.Validate(); err != nil {
		t.Fatalf("permutation invalid: %v", err)
	}
}
