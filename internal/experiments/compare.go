package experiments

import (
	"fmt"
	"io"

	finegrain "finegrain"
)

// ComparisonModels lists the SpMV models the `-compare` sweep runs, in
// column order: the two 1D baselines of Table 2, the paper's 2D
// fine-grain model, and the later medium-grain 2D model.
func ComparisonModels() []Model {
	return []Model{"graph", "hypergraph", "finegrain", "medium_grain"}
}

// CompareRow is one (matrix, K) line of the model-comparison table,
// with one cell per ComparisonModels() entry, averaged over seeds. A
// cell's Cut is the partitioner's objective: edge cut for the graph
// model, connectivity−1 (== total volume) for the hypergraph models.
type CompareRow struct {
	Matrix string
	K      int
	Cells  []*Averaged
}

// Compare sweeps the four SpMV models (ComparisonModels) over the
// configured matrices, Ks and seeds — the medium-grain vs fine-grain vs
// 1D cutsize comparison of EXPERIMENTS.md. It reuses Table2Config for
// the knobs; CollectStats is ignored.
func Compare(cfg Table2Config) ([]CompareRow, error) {
	specs, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	var rows []CompareRow
	for _, paper := range specs {
		a := paper.Scaled(cfg.Scale).Generate(MatrixSeed(paper.Name))
		for _, k := range cfg.Ks {
			row := CompareRow{Matrix: paper.Name, K: k}
			for _, model := range ComparisonModels() {
				avg, err := RunAveraged(a, k, model, cfg.Seeds, finegrain.Options{Eps: cfg.Eps, Workers: cfg.Workers})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s K=%d %s: %w", paper.Name, k, model, err)
				}
				row.Cells = append(row.Cells, avg)
				if cfg.Progress != nil {
					cfg.Progress(fmt.Sprintf("%-12s K=%-3d %-14s cut=%.0f tot=%.3f msgs=%.2f imb=%.1f%%",
						paper.Name, k, model, avg.Cut, avg.ScaledTot, avg.AvgMsgs, avg.Imbalance))
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteCompare renders the comparison in Table 2's layout with one
// column block per model: average cut objective and scaled total
// volume. For the hypergraph models the two numbers coincide by the
// exactness property; the graph model's edge cut only approximates its
// true volume — the gap is the point of the comparison.
func WriteCompare(w io.Writer, rows []CompareRow) {
	fmt.Fprintf(w, "Model comparison: cut objective vs scaled total volume\n")
	fmt.Fprintf(w, "%-12s %4s |", "name", "K")
	for _, m := range ComparisonModels() {
		fmt.Fprintf(w, " %-16s |", m)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %4s |", "", "")
	for range ComparisonModels() {
		fmt.Fprintf(w, " %8s %7s |", "cut", "tot")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %4d |", r.Matrix, r.K)
		for _, c := range r.Cells {
			fmt.Fprintf(w, " %8.0f %7.3f |", c.Cut, c.ScaledTot)
		}
		fmt.Fprintln(w)
	}
}
