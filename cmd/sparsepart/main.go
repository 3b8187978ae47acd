// Command sparsepart decomposes a sparse matrix for parallel
// matrix-vector multiplication and reports the communication profile.
//
// The matrix comes either from a Matrix Market file (-in) or from the
// synthetic catalog (-gen, -scale). The model is one of the paper's
// three: finegrain (2D, proposed), hypergraph (1D column-net) or graph
// (1D standard graph).
//
// Usage:
//
//	sparsepart -gen ken-11 -scale 0.1 -k 16 -model finegrain
//	sparsepart -in matrix.mtx -k 8 -model hypergraph -verify
//
// A decomposition saved with -save can be re-analyzed later without
// re-partitioning (the CLI twin of the partition server's cache hit):
//
//	sparsepart -gen ken-11 -scale 0.1 -k 16 -save decomp.json
//	sparsepart -gen ken-11 -scale 0.1 -load decomp.json -verify
//
// With -trace, the run's phase spans (coarsening levels, FM passes,
// recursion branches) are written as Chrome trace-event JSON that
// https://ui.perfetto.dev renders as a timeline. See OBSERVABILITY.md.
//
// With -solve N, the decomposition is compiled into a solver session
// and block conjugate gradient runs over N right-hand sides in one
// batch: the per-sweep message count stays that of a single solve
// while each message carries N words. CG assumes the matrix is
// symmetric positive definite; non-convergence is reported per
// right-hand side, not as an error.
//
//	sparsepart -in spd.mtx -k 16 -solve 8
//
// With -reorder, the decomposition is decoded a second way — as a
// cache-blocking row/column permutation (model "locality") — and the
// reordered matrix is written in Matrix Market format (gzip-aware, by
// the .gz suffix) with the permutation as a sidecar .perm file.
// -measure times the real multithreaded kernel on both layouts and
// reports wall-clock GFLOP/s:
//
//	sparsepart -gen nl -scale 1 -k 8 -model locality -reorder nl-reordered.mtx.gz -measure
//
// With -spgemm, the decomposition target is the sparse matrix product
// C = A·B instead of SpMV: A comes from -in/-gen as usual, B from the
// flag's Matrix Market file ("self" squares A). The partition is run
// through the simulated Sparse-SUMMA-style executor and the realized
// words and messages are checked against the model's cutsize-derived
// prediction — they must match exactly:
//
//	sparsepart -gen ken-11 -scale 0.1 -k 16 -model spgemm -spgemm self
//	sparsepart -in A.mtx -spgemm B.mtx -k 8 -model spgemm_1d
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	finegrain "finegrain"
	"finegrain/internal/kernel"
	"finegrain/internal/mmio"
	"finegrain/internal/reorder"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparsepart: ")
	in := flag.String("in", "", "Matrix Market file to decompose")
	gen := flag.String("gen", "", "catalog matrix to synthesize instead of -in")
	scale := flag.Float64("scale", 0.1, "scale for -gen (1 = paper size)")
	genSeed := flag.Uint64("gen-seed", 1, "generation seed for -gen")
	k := flag.Int("k", 16, "number of processors")
	model := flag.String("model", "finegrain", "decomposition model: "+strings.Join(finegrain.ModelNames(), " | "))
	listModels := flag.Bool("models", false, "list the decomposition models and exit")
	seed := flag.Uint64("seed", 1, "partitioner seed")
	eps := flag.Float64("eps", 0.03, "allowed load imbalance ε")
	workers := flag.Int("workers", 0, "partitioner goroutines (0 = GOMAXPROCS); result is identical for any value")
	stats := flag.Bool("stats", false, "print per-phase partitioner statistics (hypergraph models)")
	verify := flag.Bool("verify", false, "execute y=Ax on simulated processors and verify")
	solveN := flag.Int("solve", 0, "run block conjugate gradient with this many right-hand sides and report per-RHS convergence and the amortized traffic")
	save := flag.String("save", "", "write the decomposition's ownership arrays as JSON")
	load := flag.String("load", "", "re-analyze a previously -save'd decomposition instead of partitioning")
	spy := flag.Int("spy", 0, "print an ASCII spy plot of the decomposition at this resolution")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in ui.perfetto.dev)")
	reorderOut := flag.String("reorder", "", "write the cache-blocking reordered matrix to this .mtx[.gz] file, with the permutation as a sidecar .perm file")
	measure := flag.Bool("measure", false, "run the real multithreaded kernel and report GFLOP/s, reordered vs. natural order")
	spgemmB := flag.String("spgemm", "", "decompose the product C = A·B instead of SpMV: B's Matrix Market file, or \"self\" for C = A·A (with -model spgemm or spgemm_1d)")
	flag.Parse()

	if *listModels {
		for _, m := range finegrain.Models() {
			name := m.Name
			if len(m.Aliases) > 0 {
				name += " (" + strings.Join(m.Aliases, ", ") + ")"
			}
			fmt.Printf("%-20s %s\n", name, m.Description)
		}
		return
	}

	var a *finegrain.Matrix
	var err error
	switch {
	case *in != "" && *gen != "":
		log.Fatal("use either -in or -gen, not both")
	case *in != "":
		a, err = mmio.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		// The SpGEMM models accept rectangular operands and tolerate
		// empty rows; the SpMV models need a square, padded matrix.
		if *spgemmB == "" {
			if a.Rows != a.Cols {
				log.Fatalf("matrix is %dx%d; the decomposition models need a square matrix", a.Rows, a.Cols)
			}
			a = a.EnsureNonemptyRowsCols()
		}
	case *gen != "":
		a, err = finegrain.Generate(*gen, *scale, *genSeed)
		if err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		fmt.Fprintf(os.Stderr, "\ncatalog matrices: %v\n", finegrain.CatalogNames())
		os.Exit(2)
	}

	st := a.ComputeStats()
	fmt.Printf("matrix: n=%d nnz=%d degrees [%d..%d] avg %.2f\n",
		st.Rows, st.NNZ, st.PooledMin, st.PooledMax, st.PooledAvg)

	var tr *finegrain.Trace
	if *traceOut != "" {
		tr = finegrain.NewTrace()
	}

	var dec *finegrain.Decomposition
	if *load != "" {
		// Re-analysis: bind the saved ownership arrays to the matrix and
		// recompute the communication profile — no partitioning runs.
		asg, err := finegrain.LoadAssignment(*load, a)
		if err != nil {
			log.Fatal(err)
		}
		st, err := finegrain.Measure(asg)
		if err != nil {
			log.Fatal(err)
		}
		// For the hypergraph models the connectivity−1 cutsize equals the
		// total volume exactly; for a graph-model decomposition the edge
		// cut is not recoverable from ownership, so the measured volume is
		// the honest figure either way.
		dec = &finegrain.Decomposition{Assignment: asg, Stats: st, Cutsize: st.TotalVolume}
		fmt.Printf("loaded decomposition %s\n", *load)
	} else if *spgemmB != "" {
		b := a
		if *spgemmB != "self" {
			b, err = mmio.ReadFile(*spgemmB)
			if err != nil {
				log.Fatal(err)
			}
		}
		opts := finegrain.Options{Seed: *seed, Eps: *eps, Workers: *workers, CollectStats: *stats, Trace: tr}
		switch *model {
		case "spgemm", "finegrain": // default -model with -spgemm means the fine-grain SpGEMM model
			dec, err = finegrain.DecomposeSpGEMM(a, b, *k, opts)
		case "spgemm_1d":
			dec, err = finegrain.DecomposeSpGEMM1D(a, b, *k, opts)
		default:
			log.Fatalf("-spgemm works with -model spgemm or spgemm_1d, not %q", *model)
		}
		if err != nil {
			log.Fatal(err)
		}
	} else {
		dec, err = finegrain.DecomposeModel(*model, a,
			*k, finegrain.Options{Seed: *seed, Eps: *eps, Workers: *workers, CollectStats: *stats, Trace: tr})
		if err != nil {
			log.Fatal(err)
		}
	}

	if dec.SpGEMM != nil {
		// SpGEMM decompositions own A, B and C elements instead of one
		// matrix plus vectors; the SpMV post-processing flags do not apply.
		if *verify || *solveN > 0 || *save != "" || *spy > 0 || *reorderOut != "" || *measure {
			log.Fatal("-verify, -solve, -save, -spy, -reorder and -measure apply to SpMV decompositions, not spgemm")
		}
		if err := reportSpGEMM(dec); err != nil {
			log.Fatal(err)
		}
		if *stats && dec.PartStats != nil {
			fmt.Print(dec.PartStats.String())
		}
		writeTrace(tr, *traceOut)
		return
	}

	kUsed := dec.Assignment.K
	s := dec.Stats
	if *load != "" {
		fmt.Printf("K=%d\n", kUsed)
	} else if *model == "auto" {
		d := finegrain.SelectModel(a)
		fmt.Printf("model=auto -> %s K=%d (%s)\n", dec.Model, kUsed, d.Reason)
	} else {
		fmt.Printf("model=%s K=%d\n", dec.Model, kUsed)
	}
	fmt.Printf("  cutsize:         %d\n", dec.Cutsize)
	fmt.Printf("  total volume:    %d words (expand %d + fold %d), scaled %.4f\n",
		s.TotalVolume, s.ExpandVolume, s.FoldVolume, s.ScaledTotalVolume(a.Rows))
	fmt.Printf("  max send volume: %d words (scaled %.4f)\n", s.MaxSendVolume, s.ScaledMaxVolume(a.Rows))
	fmt.Printf("  messages:        %d total, %.2f avg per processor, %d max handled\n",
		s.TotalMessages, s.AvgMessagesPerProc, s.MaxMessagesPerProc)
	fmt.Printf("  load imbalance:  %.2f%% (max %d of avg %.1f multiplies)\n",
		s.ImbalancePct, s.MaxLoad, float64(st.NNZ)/float64(kUsed))

	if *stats {
		if dec.PartStats != nil {
			fmt.Print(dec.PartStats.String())
		} else {
			fmt.Println("  (no partitioner statistics: the graph model does not collect them)")
		}
	}

	if *spy > 0 {
		fmt.Print(finegrain.RenderSpy(dec.Assignment, *spy))
	}

	if *save != "" {
		if err := finegrain.SaveAssignment(*save, dec.Assignment); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  saved decomposition to %s\n", *save)
	}

	if *verify {
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		if err := finegrain.Verify(a, dec, x); err != nil {
			log.Fatal(err)
		}
		fmt.Println("  verified: simulated parallel multiply matches the serial kernel,")
		fmt.Println("            and moved words equal the analytic volume ✓")
	}

	if *solveN > 0 {
		if err := runSolve(dec, *solveN, *workers, tr); err != nil {
			log.Fatal(err)
		}
	}

	if *reorderOut != "" || *measure {
		b, perm, err := finegrain.Reorder(dec, finegrain.Options{Trace: tr})
		if err != nil {
			log.Fatal(err)
		}
		if *reorderOut != "" {
			if err := mmio.WriteFile(*reorderOut, b); err != nil {
				log.Fatal(err)
			}
			permPath := *reorderOut + ".perm"
			if err := reorder.WritePermFile(permPath, perm); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  wrote reordered matrix to %s (permutation sidecar: %s)\n", *reorderOut, permPath)
		}
		if *measure {
			if err := runMeasure(a, perm, tr); err != nil {
				log.Fatal(err)
			}
		}
	}

	writeTrace(tr, *traceOut)
}

// writeTrace flushes the run's spans as Chrome trace-event JSON (no-op
// without -trace).
func writeTrace(tr *finegrain.Trace, path string) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d trace events to %s\n", tr.Len(), path)
}

// reportSpGEMM prints an SpGEMM decomposition's communication profile,
// then runs it through the simulated Sparse-SUMMA-style executor and
// checks the realized traffic against the analytic profile and the
// executed product against the serial kernel — the package's exactness
// guarantee, enforced on every CLI run.
func reportSpGEMM(dec *finegrain.Decomposition) error {
	asg := dec.SpGEMM
	s := dec.Stats
	fmt.Printf("model=%s K=%d  C: %dx%d nnz=%d, %d multiply tasks\n",
		dec.Model, asg.K, asg.C.Rows, asg.C.Cols, asg.C.NNZ(), len(asg.TaskOwner))
	fmt.Printf("  cutsize:         %d\n", dec.Cutsize)
	fmt.Printf("  total volume:    %d words (expand %d + fold %d)\n",
		s.TotalVolume, s.ExpandVolume, s.FoldVolume)
	fmt.Printf("  max send volume: %d words\n", s.MaxSendVolume)
	fmt.Printf("  messages:        %d total, %.2f avg per processor, %d max handled\n",
		s.TotalMessages, s.AvgMessagesPerProc, s.MaxMessagesPerProc)
	fmt.Printf("  load imbalance:  %.2f%% (max %d of avg %.1f multiplies)\n",
		s.ImbalancePct, s.MaxLoad, float64(len(asg.TaskOwner))/float64(asg.K))

	res, err := finegrain.ExecuteSpGEMM(dec)
	if err != nil {
		return err
	}
	if res.TotalWords() != s.TotalVolume ||
		res.ExpandMessages != s.ExpandMessages || res.FoldMessages != s.FoldMessages {
		return fmt.Errorf("executor moved %d words / %d+%d messages; model predicted %d / %d+%d",
			res.TotalWords(), res.ExpandMessages, res.FoldMessages,
			s.TotalVolume, s.ExpandMessages, s.FoldMessages)
	}
	for p := range asg.C.Val {
		diff := res.C.Val[p] - asg.C.Val[p]
		if diff < 0 {
			diff = -diff
		}
		scale := asg.C.Val[p]
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		if diff > 1e-9*scale {
			return fmt.Errorf("executed c value %g at position %d, serial %g", res.C.Val[p], p, asg.C.Val[p])
		}
	}
	fmt.Println("  verified: simulated SpGEMM moved exactly the predicted words and messages,")
	fmt.Println("            and the executed product matches the serial kernel ✓")
	return nil
}

// runSolve opens a Session on the decomposition and runs one block-CG
// solve over n deterministic right-hand sides, reporting each vector's
// trajectory and the amortization the block path buys: messages are
// paid once per sweep regardless of the batch width, so n solo solves
// would send roughly n times the messages for the same answers.
func runSolve(dec *finegrain.Decomposition, n, workers int, tr *finegrain.Trace) error {
	sess, err := finegrain.NewSession(dec, finegrain.SessionOptions{Workers: workers, Trace: tr})
	if err != nil {
		return err
	}
	defer sess.Close()
	rows := dec.Assignment.A.Rows
	B := make([]float64, n*rows)
	for v := 0; v < n; v++ {
		for i := 0; i < rows; i++ {
			B[v*rows+i] = 1 / float64(i+v+1)
		}
	}
	res, err := sess.Solve(B, n, finegrain.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("  block CG: %d rhs, %d shared sweeps (CG assumes A is SPD)\n", n, res.BlockIterations)
	for v := 0; v < n; v++ {
		state := "converged"
		if !res.Converged[v] {
			state = "NOT converged"
		}
		fmt.Printf("    rhs %d: %4d iters, residual %.3e, %s\n", v, res.Iterations[v], res.Residuals[v], state)
	}
	fmt.Printf("    spmv traffic: %d words (%d per rhs), %d messages; allreduce %d words\n",
		res.SpMVWords, res.SpMVWords/n, res.SpMVMessages, res.AllreduceWords)
	if res.BlockIterations > 0 {
		perSweep := res.SpMVMessages / res.BlockIterations
		solo := 0
		for _, it := range res.Iterations {
			solo += it
		}
		fmt.Printf("    amortization: %d messages per sweep at any batch width; %d solo solves would send %d messages (%.2fx)\n",
			perSweep, n, solo*perSweep, float64(solo*perSweep)/float64(res.SpMVMessages))
	}
	return nil
}

// runMeasure times the real multithreaded kernel on the natural and
// reordered layouts (kernel.TimeLayouts: checked bitwise equal, then
// interleaved min-of-rounds) and reports wall-clock GFLOP/s — the
// figure the whole locality pipeline exists to improve.
func runMeasure(a *finegrain.Matrix, perm *finegrain.Permutation, tr *finegrain.Trace) error {
	t, err := kernel.TimeLayouts(a, perm, 3, tr)
	if err != nil {
		return err
	}
	flops := 2 * float64(a.NNZ())
	fmt.Printf("  kernel (GOMAXPROCS=%d, %d blocks):\n", runtime.GOMAXPROCS(0), t.Blocks)
	fmt.Printf("    natural:   %12.0f ns/op  %6.3f GFLOP/s\n", t.NaturalNs, flops/t.NaturalNs)
	fmt.Printf("    reordered: %12.0f ns/op  %6.3f GFLOP/s  (speedup %.2fx)\n",
		t.PermutedNs, flops/t.PermutedNs, t.NaturalNs/t.PermutedNs)
	return nil
}
