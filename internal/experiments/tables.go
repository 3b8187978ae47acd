package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	finegrain "finegrain"
	"finegrain/internal/matgen"
	"finegrain/internal/sparse"
)

// MatrixSeed derives the generation seed for a catalog matrix; the same
// matrix instance is shared by all models and K values (the paper varies
// only the partitioner seed within an instance).
func MatrixSeed(name string) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range []byte(name) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Table1Row is one line of Table 1, generated alongside the paper's
// target values for comparison.
type Table1Row struct {
	Spec  matgen.Spec // scaled target profile
	Paper matgen.Spec // original paper profile
	Stats sparse.Stats
}

// Table1 generates every catalog matrix at the given scale and returns
// its measured structure next to the paper's targets.
func Table1(scale float64) []Table1Row {
	var rows []Table1Row
	for _, paper := range matgen.Catalog() {
		spec := paper.Scaled(scale)
		a := spec.Generate(MatrixSeed(paper.Name))
		rows = append(rows, Table1Row{Spec: spec, Paper: paper, Stats: a.ComputeStats()})
	}
	return rows
}

// WriteTable1 renders Table 1 ("Properties of test matrices") with
// measured values of the synthetic stand-ins and the paper's targets.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: properties of the (synthetic) test matrices\n")
	fmt.Fprintf(w, "%-14s %9s %9s | %5s %5s %6s | paper: %9s %5s %5s %6s\n",
		"name", "rows/cols", "nonzeros", "min", "max", "avg", "nonzeros", "min", "max", "avg")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %9d | %5d %5d %6.2f | paper: %9d %5d %5d %6.2f\n",
			r.Spec.Name, r.Stats.Rows, r.Stats.NNZ,
			r.Stats.PooledMin, r.Stats.PooledMax, r.Stats.PooledAvg,
			r.Paper.NNZ, r.Paper.MinDeg, r.Paper.MaxDeg, r.Paper.AvgDeg)
	}
}

// Table2Cell is one (matrix, K, model) cell of Table 2 with averaged
// metrics.
type Table2Cell struct {
	Matrix string
	K      int
	Avg    *Averaged
}

// Table2Config controls the Table 2 regeneration sweep.
type Table2Config struct {
	// Scale shrinks the catalog matrices (1 = paper-size).
	Scale float64
	// Ks are the processor counts; the paper uses 16, 32, 64.
	Ks []int
	// Seeds is the number of partitioner seeds averaged per instance
	// (the paper uses 50).
	Seeds int
	// Eps is the balance tolerance (0 = default 3%).
	Eps float64
	// Matrices restricts the sweep to the named catalog entries; nil
	// means all 14.
	Matrices []string
	// Workers bounds the hypergraph partitioner's goroutines per
	// instance (0 = GOMAXPROCS). Results are identical for any value.
	Workers int
	// CollectStats aggregates the partitioner's per-phase statistics
	// across the sweep (reported by WriteTable2).
	CollectStats bool
	// Progress, when non-nil, receives one line per completed
	// instance.
	Progress func(string)
}

// normalize fills cfg's defaults and resolves the catalog matrices it
// sweeps, in catalog order when cfg.Matrices is nil.
func (cfg *Table2Config) normalize() ([]matgen.Spec, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{16, 32, 64}
	}
	if cfg.Seeds < 1 {
		cfg.Seeds = 1
	}
	if cfg.Matrices == nil {
		return matgen.Catalog(), nil
	}
	specs := make([]matgen.Spec, 0, len(cfg.Matrices))
	for _, name := range cfg.Matrices {
		s, err := matgen.Lookup(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Table2Result holds every cell plus the derived per-K and overall
// averages (the bottom block of Table 2).
type Table2Result struct {
	Cells []Table2Cell
	// PerK[k][model] and Overall[model] average the scaled metrics
	// across matrices.
	PerK    map[int]map[Model]*Averaged
	Overall map[Model]*Averaged
	// PartAgg aggregates partitioner phase statistics over every
	// hypergraph-model instance; non-nil only when
	// Table2Config.CollectStats was set.
	PartAgg *PartAggregate
}

// Table2 runs the full sweep of Table 2: every matrix × K × model,
// averaged over seeds.
func Table2(cfg Table2Config) (*Table2Result, error) {
	specs, err := cfg.normalize()
	if err != nil {
		return nil, err
	}

	res := &Table2Result{
		PerK:    make(map[int]map[Model]*Averaged),
		Overall: make(map[Model]*Averaged),
	}

	for _, paper := range specs {
		spec := paper.Scaled(cfg.Scale)
		a := spec.Generate(MatrixSeed(paper.Name))
		for _, k := range cfg.Ks {
			for _, model := range Models() {
				avg, err := RunAveraged(a, k, model, cfg.Seeds, finegrain.Options{
					Eps: cfg.Eps, Workers: cfg.Workers, CollectStats: cfg.CollectStats,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s K=%d %s: %w", paper.Name, k, model, err)
				}
				res.Cells = append(res.Cells, Table2Cell{Matrix: paper.Name, K: k, Avg: avg})
				if avg.Part != nil {
					if res.PartAgg == nil {
						res.PartAgg = &PartAggregate{}
					}
					res.PartAgg.Merge(avg.Part)
				}
				if res.PerK[k] == nil {
					res.PerK[k] = make(map[Model]*Averaged)
				}
				if res.PerK[k][model] == nil {
					res.PerK[k][model] = &Averaged{Model: model, K: k}
				}
				if res.Overall[model] == nil {
					res.Overall[model] = &Averaged{Model: model}
				}
				res.PerK[k][model].add(avg)
				res.Overall[model].add(avg)
				if cfg.Progress != nil {
					cfg.Progress(fmt.Sprintf("%-12s K=%-3d %-14s tot=%.3f max=%.3f msgs=%.2f imb=%.1f%% t=%.2fs",
						paper.Name, k, model, avg.ScaledTot, avg.ScaledMax, avg.AvgMsgs, avg.Imbalance, avg.Seconds))
				}
			}
		}
	}
	for _, byModel := range res.PerK {
		for _, a := range byModel {
			a.finish()
		}
	}
	for _, a := range res.Overall {
		a.finish()
	}
	return res, nil
}

// WriteTable2 renders the sweep in the paper's layout: per matrix and K,
// the three models' scaled total volume, scaled max volume, average
// message count and (normalized) partitioning time.
func WriteTable2(w io.Writer, res *Table2Result) {
	fmt.Fprintf(w, "Table 2: average communication requirements (volumes scaled by rows/cols)\n")
	fmt.Fprintf(w, "%-12s %4s | %-30s | %-30s | %-30s\n", "", "",
		"1D graph (MeTiS-style)", "1D hypergraph (PaToH-style)", "2D fine-grain (proposed)")
	fmt.Fprintf(w, "%-12s %4s | %6s %6s %7s %7s | %6s %6s %7s %7s | %6s %6s %7s %7s\n",
		"name", "K",
		"tot", "max", "#msgs", "time",
		"tot", "max", "#msgs", "time",
		"tot", "max", "#msgs", "time")

	// Index cells by (matrix, K, model).
	type key struct {
		m string
		k int
	}
	byKey := map[key]map[Model]*Averaged{}
	var order []key
	for _, c := range res.Cells {
		kk := key{c.Matrix, c.K}
		if byKey[kk] == nil {
			byKey[kk] = map[Model]*Averaged{}
			order = append(order, kk)
		}
		byKey[kk][c.Avg.Model] = c.Avg
	}
	writeTriple := func(name string, k int, cells map[Model]*Averaged) {
		g, h, f := cells["graph"], cells["hypergraph"], cells["finegrain"]
		norm := func(a *Averaged) string {
			if g == nil || g.Seconds == 0 || a == nil {
				return "-"
			}
			return fmt.Sprintf("(%.2f)", a.Seconds/g.Seconds)
		}
		cell := func(a *Averaged, t string) string {
			if a == nil {
				return fmt.Sprintf("%6s %6s %7s %7s", "-", "-", "-", "-")
			}
			return fmt.Sprintf("%6.2f %6.3f %7.2f %7s", a.ScaledTot, a.ScaledMax, a.AvgMsgs, t)
		}
		gt := "-"
		if g != nil {
			gt = fmt.Sprintf("%.2fs", g.Seconds)
		}
		fmt.Fprintf(w, "%-12s %4d | %s | %s | %s\n", name, k,
			cell(g, gt), cell(h, norm(h)), cell(f, norm(f)))
	}
	for _, kk := range order {
		writeTriple(kk.m, kk.k, byKey[kk])
	}

	fmt.Fprintf(w, "%s\n", "-- averages --")
	ks := make([]int, 0, len(res.PerK))
	for k := range res.PerK {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	for _, k := range ks {
		writeTriple("average", k, res.PerK[k])
	}
	writeTriple("overall", 0, res.Overall)

	if g, f := res.Overall["graph"], res.Overall["finegrain"]; g != nil && f != nil && g.ScaledTot > 0 {
		h := res.Overall["hypergraph"]
		fmt.Fprintf(w, "\nheadline: fine-grain total volume is %.0f%% lower than the graph model",
			100*(1-f.ScaledTot/g.ScaledTot))
		if h != nil && h.ScaledTot > 0 {
			fmt.Fprintf(w, " and %.0f%% lower than the 1D hypergraph model", 100*(1-f.ScaledTot/h.ScaledTot))
		}
		fmt.Fprintf(w, "\n(paper: 59%% and 43%% on the original matrices)\n")
	}

	if pa := res.PartAgg; pa != nil && pa.Instances > 0 {
		fmt.Fprintf(w, "\npartitioner phases over %d hypergraph-model instances:\n", pa.Instances)
		fmt.Fprintf(w, "  coarsen %v, initial %v, refine %v (total wall %v)\n",
			pa.CoarsenTime.Round(time.Millisecond), pa.InitialTime.Round(time.Millisecond),
			pa.RefineTime.Round(time.Millisecond), pa.TotalTime.Round(time.Millisecond))
		fmt.Fprintf(w, "  %d bisections, %d FM passes (%d moves, %d rolled back), mean utilization %.0f%%\n",
			pa.Bisections, pa.FMPasses, pa.FMMoves, pa.FMRollbacks, 100*pa.Utilization)
	}
}
