// Command experiments regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	experiments -table 1 [-scale 0.2]
//	experiments -table 2 [-scale 0.1] [-seeds 3] [-k 16,32,64] [-matrices ken-11,cq9]
//	experiments -figure 1
//	experiments -localitybench nl [-scale 1] [-k 64] [-iters 50]
//	experiments -compare [-scale 0.1] [-k 16,32,64] [-matrices ken-11,cq9] [-seeds 3]
//	experiments -spgemmbench [-scale 0.1] [-k 4,16] [-matrices ken-11,cq9] [-json BENCH_spgemm.json]
//
// The -compare mode runs the medium-grain vs fine-grain vs 1D model
// comparison (cut objective next to realized scaled volume per model).
// The -spgemmbench mode sweeps both SpGEMM hypergraph models over
// C = A·A on square catalog matrices, re-asserting in every cell that
// the simulated Sparse-SUMMA executor's traffic equals the model's
// cutsize-derived prediction, and writes the figures to the path given
// by -json (default BENCH_spgemm.json; empty writes no artifact).
//
// Scale shrinks the synthetic catalog matrices proportionally (1 =
// paper-size); volumes are scaled by the matrix dimension, so results at
// reduced scale remain comparable in shape to the paper's Table 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	finegrain "finegrain"
	"finegrain/internal/experiments"
	"finegrain/internal/kernel"
	"finegrain/internal/reorder"
)

func main() {
	table := flag.Int("table", 0, "regenerate Table 1 or 2")
	figure := flag.Int("figure", 0, "regenerate Figure 1")
	scale := flag.Float64("scale", 0.1, "matrix scale factor (1 = paper size)")
	seeds := flag.Int("seeds", 3, "partitioner seeds averaged per instance (paper: 50)")
	ks := flag.String("k", "16,32,64", "comma-separated processor counts")
	matrices := flag.String("matrices", "", "comma-separated catalog names (default: all 14)")
	workers := flag.Int("workers", 0, "partitioner goroutines per instance (0 = GOMAXPROCS); results are identical for any value")
	stats := flag.Bool("stats", false, "aggregate and print partitioner per-phase statistics")
	quiet := flag.Bool("quiet", false, "suppress per-instance progress lines")
	localityBench := flag.String("localitybench", "", "catalog matrix: time the real kernel, natural vs cache-blocked reordering")
	iters := flag.Int("iters", 50, "multiplies per timing in -localitybench")
	compare := flag.Bool("compare", false, "compare the 1D, fine-grain and medium-grain SpMV models")
	spgemmBench := flag.Bool("spgemmbench", false, "sweep the SpGEMM hypergraph models over C=A·A with the simulated executor")
	jsonOut := flag.String("json", "BENCH_spgemm.json", "artifact path for -spgemmbench (empty = none)")
	flag.Parse()

	switch {
	case *spgemmBench:
		cfg := experiments.SpGEMMBenchConfig{Scale: *scale, Ks: parseInts(*ks), Workers: *workers}
		if *matrices != "" {
			cfg.Matrices = strings.Split(*matrices, ",")
		}
		if !*quiet {
			cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		rep, err := experiments.SpGEMMBench(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		experiments.WriteSpGEMMBench(os.Stdout, rep)
		if *jsonOut != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
	case *compare:
		cfg := experiments.Table2Config{
			Scale:   *scale,
			Seeds:   *seeds,
			Ks:      parseInts(*ks),
			Workers: *workers,
		}
		if *matrices != "" {
			cfg.Matrices = strings.Split(*matrices, ",")
		}
		if !*quiet {
			cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		rows, err := experiments.Compare(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		experiments.WriteCompare(os.Stdout, rows)
	case *localityBench != "":
		k := 64
		if ks := parseInts(*ks); len(ks) > 0 {
			k = ks[0]
		}
		if err := runLocalityBench(*localityBench, *scale, k, *iters); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	case *table == 1:
		experiments.WriteTable1(os.Stdout, experiments.Table1(*scale))
	case *table == 2:
		cfg := experiments.Table2Config{
			Scale:        *scale,
			Seeds:        *seeds,
			Ks:           parseInts(*ks),
			Workers:      *workers,
			CollectStats: *stats,
		}
		if *matrices != "" {
			cfg.Matrices = strings.Split(*matrices, ",")
		}
		if !*quiet {
			cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		res, err := experiments.Table2(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		experiments.WriteTable2(os.Stdout, res)
	case *figure == 1:
		if err := experiments.WriteFigure1(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runLocalityBench measures what the cache-blocking reordering buys on
// real hardware: the same matrix multiplied by the real kernel in
// natural order and in the locality model's permuted order.
func runLocalityBench(catalog string, scale float64, k, iters int) error {
	a, err := finegrain.Generate(catalog, scale, 1)
	if err != nil {
		return err
	}
	dec, err := finegrain.DecomposeLocality(a, k, finegrain.Options{Seed: 1})
	if err != nil {
		return err
	}
	_, perm, err := finegrain.Reorder(dec, finegrain.Options{})
	if err != nil {
		return err
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	xp := make([]float64, a.Cols) // x in permuted space, permuted once
	reorder.ApplyVec(xp, x, perm.Col)
	y := make([]float64, a.Rows)
	flops := 2 * float64(a.NNZ())

	natural, err := kernel.NewPlan(a, nil, kernel.Options{})
	if err != nil {
		return err
	}
	defer natural.Close()
	reordered, err := kernel.NewPlan(a, perm, kernel.Options{})
	if err != nil {
		return err
	}
	defer reordered.Close()

	// Both layouts run in steady state (vectors stay in the plan's
	// space, as an iterative solver keeps them), in interleaved rounds
	// so noise on shared hosts hits both sides alike.
	opts := kernel.ExecOptions{}
	if err := natural.Exec(x, y, opts); err != nil { // warm-up
		return err
	}
	if err := reordered.Exec(xp, y, opts); err != nil {
		return err
	}
	var nsNat, nsReord float64
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := natural.Exec(x, y, opts); err != nil {
				return err
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(iters)
		if nsNat == 0 || ns < nsNat {
			nsNat = ns
		}
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			if err := reordered.Exec(xp, y, opts); err != nil {
				return err
			}
		}
		ns = float64(time.Since(t0).Nanoseconds()) / float64(iters)
		if nsReord == 0 || ns < nsReord {
			nsReord = ns
		}
	}
	fmt.Printf("localitybench %s scale=%g K=%d n=%d nnz=%d gomaxprocs=%d\n",
		catalog, scale, k, a.Rows, a.NNZ(), runtime.GOMAXPROCS(0))
	fmt.Printf("  natural:   %12.0f ns/op  %6.3f GFLOP/s\n", nsNat, flops/nsNat)
	fmt.Printf("  reordered: %12.0f ns/op  %6.3f GFLOP/s\n", nsReord, flops/nsReord)
	fmt.Printf("  speedup:   %.2fx\n", nsNat/nsReord)
	return nil
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		x, err := strconv.Atoi(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bad -k value %q\n", f)
			os.Exit(2)
		}
		out = append(out, x)
	}
	return out
}
