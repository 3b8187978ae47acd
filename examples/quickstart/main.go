// Quickstart: build a small sparse matrix, decompose it for 4
// processors with the paper's fine-grain hypergraph model, inspect the
// communication profile, and verify the decomposition by executing
// y = Ax on simulated message-passing processors.
package main

import (
	"fmt"
	"log"

	finegrain "finegrain"
)

func main() {
	// An 8×8 matrix with an irregular pattern: tridiagonal band plus a
	// dense column 0 (the structure 1D rowwise decompositions handle
	// poorly and the fine-grain model splits freely).
	coo := finegrain.NewCOO(8, 8)
	for i := 0; i < 8; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
			coo.Add(i-1, i, -1)
			coo.Add(i, 0, 0.5) // dense column
		}
	}
	a := coo.ToCSR()
	fmt.Printf("matrix: %v\n", a)

	dec, err := finegrain.Decompose2D(a, 4, finegrain.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	st := dec.Stats
	fmt.Printf("fine-grain 2D decomposition on K=%d processors:\n", st.K)
	fmt.Printf("  total communication volume: %d words (expand %d + fold %d)\n",
		st.TotalVolume, st.ExpandVolume, st.FoldVolume)
	fmt.Printf("  connectivity-1 cutsize:     %d (equals the volume: the paper's theorem)\n", dec.Cutsize)
	fmt.Printf("  messages: %d total, %.2f per processor (bound 2(K-1) = %d)\n",
		st.TotalMessages, st.AvgMessagesPerProc, 2*(st.K-1))
	fmt.Printf("  multiplies per processor: %v (imbalance %.1f%%)\n", st.Loads, st.ImbalancePct)

	// Execute y = Ax on 4 simulated processors and check the result. An
	// iterative solver multiplies thousands of times against one
	// decomposition; a Session compiles the communication plan once so
	// each multiply pays only execution cost.
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	x := make([]float64, 8)
	for i := range x {
		x[i] = float64(i + 1)
	}
	y := make([]float64, 8)
	if err := s.Multiply(x, y, finegrain.ExecOptions{}); err != nil {
		log.Fatal(err)
	}
	ctr := s.Counters()
	fmt.Printf("parallel y = %v\n", y)
	fmt.Printf("simulator moved %d words in %d messages — matches the analysis: %v\n",
		ctr.TotalWords(), ctr.TotalMessages(), ctr.TotalWords() == st.TotalVolume)

	if err := finegrain.Verify(a, dec, x); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified against the serial kernel ✓")

	for it := 0; it < 3; it++ {
		if err := s.Multiply(x, y, finegrain.ExecOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("3 more multiplies on the compiled plan, %d words each ✓\n",
		ctr.TotalWords())
}
