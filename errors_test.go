package finegrain_test

import (
	"context"
	"errors"
	"testing"

	finegrain "finegrain"
)

func nonSquareMatrix() *finegrain.Matrix {
	coo := finegrain.NewCOO(2, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 2, 1)
	return coo.ToCSR()
}

// TestDecomposeErrorCodes table-tests the machine-readable code every
// Decompose entry point attaches to its failures.
func TestDecomposeErrorCodes(t *testing.T) {
	a := smallMatrix()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	entries := []struct {
		name string
		fn   func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error)
	}{
		{"Decompose2D", finegrain.Decompose2D},
		{"Decompose1D", finegrain.Decompose1D},
		{"Decompose1DGraph", finegrain.Decompose1DGraph},
	}
	cases := []struct {
		name string
		a    *finegrain.Matrix
		k    int
		opts finegrain.Options
		want finegrain.ErrorCode
	}{
		{"nil matrix", nil, 4, finegrain.Options{}, finegrain.BadMatrix},
		{"non-square", nonSquareMatrix(), 2, finegrain.Options{}, finegrain.BadMatrix},
		{"k zero", a, 0, finegrain.Options{}, finegrain.BadK},
		{"k negative", a, -1, finegrain.Options{}, finegrain.BadK},
		{"k too large", a, 1 << 20, finegrain.Options{}, finegrain.BadK},
		{"canceled ctx", a, 4, finegrain.Options{Ctx: canceled}, finegrain.Canceled},
	}
	for _, e := range entries {
		for _, tc := range cases {
			_, err := e.fn(tc.a, tc.k, tc.opts)
			if err == nil {
				t.Errorf("%s/%s: no error", e.name, tc.name)
				continue
			}
			if got := finegrain.ErrorCodeOf(err); got != tc.want {
				t.Errorf("%s/%s: code %q, want %q (err: %v)", e.name, tc.name, got, tc.want, err)
			}
			var fe *finegrain.Error
			if !errors.As(err, &fe) {
				t.Errorf("%s/%s: error is not a *finegrain.Error: %T", e.name, tc.name, err)
			}
		}
	}

	// Cancellation preserves the cause through Unwrap, so callers can
	// keep matching with errors.Is.
	_, err := finegrain.Decompose2D(a, 4, finegrain.Options{Ctx: canceled})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled decompose: errors.Is(err, context.Canceled) is false: %v", err)
	}

	_, err = finegrain.DecomposeModel("mystery", a, 4, finegrain.Options{})
	if got := finegrain.ErrorCodeOf(err); got != finegrain.BadModel {
		t.Errorf("unknown model: code %q, want BadModel (err: %v)", got, err)
	}
}

func TestErrorCodeOf(t *testing.T) {
	if got := finegrain.ErrorCodeOf(nil); got != "" {
		t.Errorf("ErrorCodeOf(nil) = %q, want empty", got)
	}
	if got := finegrain.ErrorCodeOf(errors.New("plain")); got != finegrain.Internal {
		t.Errorf("ErrorCodeOf(plain) = %q, want Internal", got)
	}
	wrapped := &finegrain.Error{Code: finegrain.BadK, Op: "test", Msg: "k"}
	if got := finegrain.ErrorCodeOf(wrapped); got != finegrain.BadK {
		t.Errorf("ErrorCodeOf(*Error) = %q, want BadK", got)
	}
}

// TestModelRegistry pins the registry the CLI and server both consume:
// canonical names, aliases, and alias-invariant dispatch.
func TestModelRegistry(t *testing.T) {
	models := finegrain.Models()
	if len(models) != 8 {
		t.Fatalf("registry has %d models, want 8", len(models))
	}
	for _, m := range models {
		if m.Name == "" || m.Description == "" {
			t.Errorf("model %+v missing name or description", m)
		}
	}

	for alias, want := range map[string]string{
		"finegrain": "finegrain", "2d": "finegrain",
		"hypergraph": "hypergraph", "1d": "hypergraph",
		"graph":    "graph",
		"locality": "locality", "cache": "locality",
		"medium_grain": "medium_grain", "medium": "medium_grain",
		"spgemm": "spgemm", "spgemm_1d": "spgemm_1d",
		"auto": "auto",
	} {
		m, ok := finegrain.LookupModel(alias)
		if !ok || m.Name != want {
			t.Errorf("LookupModel(%q) = %v/%v, want %s", alias, m.Name, ok, want)
		}
	}
	if _, ok := finegrain.LookupModel("mystery"); ok {
		t.Error("LookupModel accepted an unknown name")
	}

	// Alias dispatch produces the same decomposition as the canonical
	// name.
	a := smallMatrix()
	d1, err := finegrain.DecomposeModel("finegrain", a, 4, finegrain.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := finegrain.DecomposeModel("2d", a, 4, finegrain.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Cutsize != d2.Cutsize {
		t.Errorf("alias dispatch diverged: cutsize %d vs %d", d1.Cutsize, d2.Cutsize)
	}
}

// TestSpGEMMEmptyProductCode checks that both SpGEMM entry points
// report a structurally empty product as BadMatrix: A holds only a_01,
// so A·A has no multiplication tasks.
func TestSpGEMMEmptyProductCode(t *testing.T) {
	a := finegrain.FromEntries(3, 3, []finegrain.Entry{{Row: 0, Col: 1, Val: 1}})
	for _, e := range []struct {
		name string
		fn   func(a, b *finegrain.Matrix, k int, o finegrain.Options) (*finegrain.Decomposition, error)
	}{
		{"DecomposeSpGEMM", finegrain.DecomposeSpGEMM},
		{"DecomposeSpGEMM1D", finegrain.DecomposeSpGEMM1D},
	} {
		_, err := e.fn(a, a, 1, finegrain.Options{})
		if got := finegrain.ErrorCodeOf(err); got != finegrain.BadMatrix {
			t.Errorf("%s: code %q, want BadMatrix (err: %v)", e.name, got, err)
		}
	}
}

// TestPartitionHypergraphErrorCodes checks that PartitionHypergraph
// reports bad input as a classified *Error instead of a plain error or
// a panic: a nil or vertex-less hypergraph is BadMatrix, K outside
// [1, |V|] is BadK, and a canceled context is Canceled.
func TestPartitionHypergraphErrorCodes(t *testing.T) {
	a, err := finegrain.Generate("cq9", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := finegrain.BuildFineGrain(a)
	if err != nil {
		t.Fatal(err)
	}
	h := fg.H
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		h    *finegrain.Hypergraph
		k    int
		opts finegrain.Options
		want finegrain.ErrorCode
	}{
		{"nil hypergraph", nil, 4, finegrain.Options{}, finegrain.BadMatrix},
		{"no vertices", &finegrain.Hypergraph{}, 4, finegrain.Options{}, finegrain.BadMatrix},
		{"k zero", h, 0, finegrain.Options{}, finegrain.BadK},
		{"k negative", h, -1, finegrain.Options{}, finegrain.BadK},
		{"k above |V|", h, h.NumVertices() + 1, finegrain.Options{}, finegrain.BadK},
		{"canceled ctx", h, 4, finegrain.Options{Ctx: canceled}, finegrain.Canceled},
	}
	for _, tc := range cases {
		p, err := finegrain.PartitionHypergraph(tc.h, tc.k, nil, tc.opts)
		if err == nil {
			t.Errorf("%s: no error (partition %v)", tc.name, p != nil)
			continue
		}
		if got := finegrain.ErrorCodeOf(err); got != tc.want {
			t.Errorf("%s: code %q, want %q (err: %v)", tc.name, got, tc.want, err)
		}
		var fe *finegrain.Error
		if !errors.As(err, &fe) {
			t.Errorf("%s: error is not a *finegrain.Error: %T", tc.name, err)
		} else if fe.Op != "PartitionHypergraph" {
			t.Errorf("%s: Op %q, want PartitionHypergraph", tc.name, fe.Op)
		}
	}
	if _, err := finegrain.PartitionHypergraph(h, 4, nil, finegrain.Options{Seed: 1}); err != nil {
		t.Errorf("valid call: %v", err)
	}
}
