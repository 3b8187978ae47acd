// Command experiments regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	experiments -table 1 [-scale 0.2]
//	experiments -table 2 [-scale 0.1] [-seeds 3] [-k 16,32,64] [-matrices ken-11,cq9]
//	experiments -figure 1
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
// Timing the locality kernel, natural vs reordered, is
// `sparsepart -model locality -measure`.
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
	"strconv"
	"strings"

	"finegrain/internal/experiments"
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
