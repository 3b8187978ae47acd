package finegrain_test

import (
	"fmt"

	finegrain "finegrain"
)

// Example decomposes a tiny matrix with the fine-grain model and prints
// its exact communication volume.
func Example() {
	// 4×4 tridiagonal matrix.
	coo := finegrain.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
		}
	}
	a := coo.ToCSR()
	dec, err := finegrain.Decompose2D(a, 2, finegrain.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("volume == cutsize:", dec.Stats.TotalVolume == dec.Cutsize)
	// Output: volume == cutsize: true
}

// ExampleSession_Multiply executes a decomposed y = Ax on simulated
// processors and shows that the words moved equal the analyzed volume.
func ExampleSession_Multiply() {
	a := finegrain.FromEntries(3, 3, []finegrain.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 2, Val: 3}, {Row: 0, Col: 2, Val: 1},
	})
	dec, err := finegrain.Decompose2D(a, 2, finegrain.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	y := make([]float64, 3)
	if err := s.Multiply([]float64{1, 1, 1}, y, finegrain.ExecOptions{}); err != nil {
		panic(err)
	}
	c := s.Counters()
	fmt.Println("y:", y)
	fmt.Println("words match analysis:", c.TotalWords() == dec.Stats.TotalVolume)
	// Output:
	// y: [2 2 3]
	// words match analysis: true
}

// ExampleNewSession compiles a decomposition once and multiplies
// repeatedly — the iterative-solver regime the paper optimizes for.
func ExampleNewSession() {
	a := finegrain.FromEntries(3, 3, []finegrain.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 2, Val: 3}, {Row: 0, Col: 2, Val: 1},
	})
	dec, err := finegrain.Decompose2D(a, 2, finegrain.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		panic(err)
	}
	defer s.Close()

	y := make([]float64, 3)
	x := []float64{1, 1, 1}
	for i := 0; i < 3; i++ { // e.g. power iteration: x ← Ax
		if err := s.Multiply(x, y, finegrain.ExecOptions{}); err != nil {
			panic(err)
		}
		copy(x, y)
	}
	fmt.Println("A³·1:", y)
	c := s.Counters()
	fmt.Println("words per multiply match analysis:", c.TotalWords() == dec.Stats.TotalVolume)
	// Output:
	// A³·1: [14 8 27]
	// words per multiply match analysis: true
}

// ExampleGenerate synthesizes one of the paper's test matrices.
func ExampleGenerate() {
	a, err := finegrain.Generate("sherman3", 0.02, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("square:", a.Rows == a.Cols, "nonzeros > 0:", a.NNZ() > 0)
	// Output: square: true nonzeros > 0: true
}

// ExampleBuildReduction decomposes a generic reduction problem with a
// pre-assigned input.
func ExampleBuildReduction() {
	tasks := []finegrain.Task{
		{Inputs: []int{0}, Outputs: []int{0}},
		{Inputs: []int{0, 1}, Outputs: []int{0}},
		{Inputs: []int{1}, Outputs: []int{1}},
		{Inputs: []int{2}, Outputs: []int{1}},
	}
	opts := finegrain.ReductionOptions{K: 2, PreInputs: []int{0, -1, -1}}
	rm, err := finegrain.BuildReduction(3, 2, tasks, opts)
	if err != nil {
		panic(err)
	}
	p, err := finegrain.PartitionHypergraph(rm.H, 2, rm.Fixed, finegrain.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	dec, err := rm.Decode(p, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("input 0 stays on processor:", dec.InputOwner[0])
	// Output: input 0 stays on processor: 0
}
