// Iterative-solver workload: the paper's motivating scenario. A
// ken-11-profile LP matrix is decomposed once per model and then
// repeatedly multiplied (as an iterative solver would), showing how the
// decomposition's communication volume dominates the recurring cost.
//
// Usage: go run ./examples/spmv [-matrix ken-11] [-scale 0.08] [-k 16] [-iters 5]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	finegrain "finegrain"
)

func main() {
	matrix := flag.String("matrix", "ken-11", "catalog matrix name")
	scale := flag.Float64("scale", 0.08, "matrix scale (1 = paper size)")
	k := flag.Int("k", 16, "number of processors")
	iters := flag.Int("iters", 5, "multiplications per decomposition (solver iterations)")
	flag.Parse()

	a, err := finegrain.Generate(*matrix, *scale, 1)
	if err != nil {
		log.Fatal(err)
	}
	st := a.ComputeStats()
	fmt.Printf("%s at scale %.2g: n=%d, nnz=%d, degrees [%d..%d] avg %.2f\n\n",
		*matrix, *scale, st.Rows, st.NNZ, st.PooledMin, st.PooledMax, st.PooledAvg)

	type method struct {
		name string
		fn   func(*finegrain.Matrix, int, finegrain.Options) (*finegrain.Decomposition, error)
	}
	methods := []method{
		{"1D graph (MeTiS-style)", finegrain.Decompose1DGraph},
		{"1D hypergraph (PaToH-style)", finegrain.Decompose1D},
		{"2D fine-grain (proposed)", finegrain.Decompose2D},
	}

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1.0 / float64(i+1)
	}
	y := make([]float64, a.Rows)

	for _, m := range methods {
		start := time.Now()
		dec, err := m.fn(a, *k, finegrain.Options{Seed: 7})
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		partTime := time.Since(start)

		// Run the solver loop: compile the decomposition into a reusable
		// session once, then execute y = Ax repeatedly (each iteration
		// pays the expand/fold volume again, but not the compilation).
		sess, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		ctr := sess.Counters()
		var words, msgs int
		start = time.Now()
		for it := 0; it < *iters; it++ {
			if err := sess.Multiply(x, y, finegrain.ExecOptions{}); err != nil {
				log.Fatal(err)
			}
			words += ctr.TotalWords()
			msgs += ctr.TotalMessages()
		}
		mulTime := time.Since(start)
		sess.Close()

		s := dec.Stats
		fmt.Printf("%-30s partition %8v | per-iteration: %6d words (%.3f/row), %5.1f msgs/proc | imbalance %.1f%%\n",
			m.name, partTime.Round(time.Millisecond),
			s.TotalVolume, s.ScaledTotalVolume(a.Rows), s.AvgMessagesPerProc, s.ImbalancePct)
		fmt.Printf("%-30s %d iterations moved %d words in %d messages (%v)\n\n",
			"", *iters, words, msgs, mulTime.Round(time.Millisecond))
	}
}
