package experiments

import (
	"fmt"
	"io"

	finegrain "finegrain"
	"finegrain/internal/matgen"
)

// ComparisonModels lists the SpMV models the `-compare` sweep runs, in
// column order: the two 1D baselines of Table 2, the paper's 2D
// fine-grain model, and the later medium-grain 2D model.
func ComparisonModels() []Model {
	return []Model{GraphModel, Hypergraph1D, FineGrain2D, MediumGrain2D}
}

// CompareCell averages one model's metrics over the seeds of one
// (matrix, K) instance.
type CompareCell struct {
	Model Model
	// Cut is the partitioner's objective averaged over seeds: edge cut
	// for the graph model, connectivity−1 (== total volume) for the
	// hypergraph models.
	Cut float64
	// ScaledTot is the total communication volume scaled by the matrix
	// dimension, the paper's headline metric.
	ScaledTot float64
	// AvgMsgs is the average message count per processor.
	AvgMsgs float64
	// Imbalance is the percent load imbalance.
	Imbalance float64
}

// CompareRow is one (matrix, K) line of the model-comparison table,
// with one cell per ComparisonModels() entry.
type CompareRow struct {
	Matrix string
	K      int
	Cells  []CompareCell
}

// Compare sweeps the four SpMV models (ComparisonModels) over the
// configured matrices, Ks and seeds — the medium-grain vs fine-grain vs
// 1D cutsize comparison of EXPERIMENTS.md. It reuses Table2Config for
// the knobs; CollectStats is ignored.
func Compare(cfg Table2Config) ([]CompareRow, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{16, 32, 64}
	}
	if cfg.Seeds < 1 {
		cfg.Seeds = 1
	}
	specs := matgen.Catalog()
	if cfg.Matrices != nil {
		var filtered []matgen.Spec
		for _, name := range cfg.Matrices {
			s, err := matgen.Lookup(name)
			if err != nil {
				return nil, err
			}
			filtered = append(filtered, s)
		}
		specs = filtered
	}
	var rows []CompareRow
	for _, paper := range specs {
		a := paper.Scaled(cfg.Scale).Generate(MatrixSeed(paper.Name))
		for _, k := range cfg.Ks {
			row := CompareRow{Matrix: paper.Name, K: k}
			for _, model := range ComparisonModels() {
				cell := CompareCell{Model: model}
				for s := 1; s <= cfg.Seeds; s++ {
					res, err := RunInstance(a, k, model, finegrain.Options{
						Seed: uint64(s) * 0x9e3779b9, Eps: cfg.Eps, Workers: cfg.Workers,
					})
					if err != nil {
						return nil, fmt.Errorf("experiments: %s K=%d %s: %w", paper.Name, k, model, err)
					}
					cell.Cut += float64(res.Cutsize)
					cell.ScaledTot += res.ScaledTot
					cell.AvgMsgs += res.AvgMsgs
					cell.Imbalance += res.Imbalance
				}
				f := float64(cfg.Seeds)
				cell.Cut /= f
				cell.ScaledTot /= f
				cell.AvgMsgs /= f
				cell.Imbalance /= f
				row.Cells = append(row.Cells, cell)
				if cfg.Progress != nil {
					cfg.Progress(fmt.Sprintf("%-12s K=%-3d %-14s cut=%.0f tot=%.3f msgs=%.2f imb=%.1f%%",
						paper.Name, k, model, cell.Cut, cell.ScaledTot, cell.AvgMsgs, cell.Imbalance))
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
