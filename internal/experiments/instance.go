// Package experiments regenerates the paper's evaluation: Table 1
// (test-matrix properties), Table 2 (communication requirements of the
// 1D standard graph model, the 1D hypergraph model and the proposed 2D
// fine-grain hypergraph model at K ∈ {16, 32, 64}), the derived summary
// rows, and Figure 1 (the dependency-relation view of the fine-grain
// model). Matrices come from internal/matgen's catalog of synthetic
// stand-ins for the paper's UF/Netlib test set (see DESIGN.md §5).
package experiments

import (
	"fmt"
	"time"

	finegrain "finegrain"
	"finegrain/internal/comm"
	"finegrain/internal/core"
	"finegrain/internal/sparse"
)

// Model selects one of the three decomposition methods of Table 2.
type Model int

const (
	// GraphModel is the 1D standard graph model partitioned with the
	// MeTiS-style partitioner.
	GraphModel Model = iota
	// Hypergraph1D is the 1D column-net hypergraph model partitioned
	// with the PaToH-style partitioner.
	Hypergraph1D
	// FineGrain2D is the paper's 2D fine-grain hypergraph model.
	FineGrain2D
	// Checkerboard2D is the prior-art 2D baseline the paper cites
	// (Hendrickson et al.; Lewis & van de Geijn): block the matrix onto
	// a near-square processor grid with no explicit communication
	// minimization. Not part of Table 2; used by the comparison
	// example and ablation benchmarks.
	Checkerboard2D
	// MediumGrain2D is the Pelt–Bisseling medium-grain 2D model: each
	// nonzero joins its row or column group, and the combined
	// (m+n)-vertex hypergraph is partitioned once. Not part of Table 2
	// (the paper predates it); used by the model-comparison sweep.
	MediumGrain2D
)

func (m Model) String() string {
	switch m {
	case GraphModel:
		return "graph-1d"
	case Hypergraph1D:
		return "hypergraph-1d"
	case FineGrain2D:
		return "finegrain-2d"
	case Checkerboard2D:
		return "checkerboard-2d"
	case MediumGrain2D:
		return "mediumgrain-2d"
	}
	return "unknown"
}

// Models lists the three methods in Table 2 column order.
func Models() []Model { return []Model{GraphModel, Hypergraph1D, FineGrain2D} }

// AllModels additionally includes the checkerboard prior-art baseline.
func AllModels() []Model { return []Model{GraphModel, Hypergraph1D, FineGrain2D, Checkerboard2D} }

// RunResult is the outcome of one decomposition instance — one (matrix,
// K, model) cell of Table 2 for one seed.
type RunResult struct {
	Model Model
	K     int
	// Stats is the measured communication profile.
	Stats *comm.Stats
	// ScaledTot and ScaledMax are the volumes scaled by the matrix
	// dimension, as Table 2 reports them.
	ScaledTot float64
	ScaledMax float64
	// AvgMsgs is the average number of messages per processor.
	AvgMsgs float64
	// Imbalance is the percent load imbalance of the decomposition.
	Imbalance float64
	// Seconds is the wall-clock decomposition time (model build +
	// partition + decode + measure).
	Seconds float64
	// Cutsize is the partitioner's objective value (connectivity−1 for
	// the hypergraph models, edge cut for the graph model).
	Cutsize int
	// PartStats is the hypergraph partitioner's per-phase record;
	// non-nil only for hypergraph models with CollectStats configured.
	PartStats *finegrain.PartitionStats
}

// registryModels maps the Table 2 models onto their finegrain registry
// entries. The checkerboard baseline is not a registry model.
var registryModels = map[Model]string{
	GraphModel:    "graph",
	Hypergraph1D:  "hypergraph",
	FineGrain2D:   "finegrain",
	MediumGrain2D: "medium_grain",
}

// RunInstance partitions matrix a into k parts with the given model and
// measures the resulting communication. o.Seed controls the
// partitioner's randomization (the paper averages 50 seeds per
// instance); o.Eps, o.Workers and o.CollectStats reach the partitioner
// as in finegrain.DecomposeModel, which runs every model but the
// checkerboard baseline.
func RunInstance(a *sparse.CSR, k int, model Model, o finegrain.Options) (*RunResult, error) {
	start := time.Now()
	var stats *comm.Stats
	var cut int
	var ps *finegrain.PartitionStats
	if model == Checkerboard2D {
		p, q := core.GridShape(k)
		mdl, err := core.BuildCheckerboard(a, p, q)
		if err != nil {
			return nil, err
		}
		if stats, err = comm.Measure(mdl.Decode()); err != nil {
			return nil, err
		}
		// cut stays 0: no partitioner objective, pure blocking.
	} else {
		name, ok := registryModels[model]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown model %d", int(model))
		}
		dec, err := finegrain.DecomposeModel(name, a, k, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", model, err)
		}
		stats, cut, ps = dec.Stats, dec.Cutsize, dec.PartStats
	}
	return &RunResult{
		Model:     model,
		K:         k,
		Stats:     stats,
		ScaledTot: stats.ScaledTotalVolume(a.Rows),
		ScaledMax: stats.ScaledMaxVolume(a.Rows),
		AvgMsgs:   stats.AvgMessagesPerProc,
		Imbalance: stats.ImbalancePct,
		Seconds:   time.Since(start).Seconds(),
		Cutsize:   cut,
		PartStats: ps,
	}, nil
}

// PartAggregate accumulates partitioner phase statistics across
// instances (only populated when CollectStats is configured).
type PartAggregate struct {
	Instances   int
	Bisections  int
	FMPasses    int
	FMMoves     int
	FMRollbacks int
	CoarsenTime time.Duration
	InitialTime time.Duration
	RefineTime  time.Duration
	TotalTime   time.Duration
	// Utilization is the mean goroutine utilization over instances.
	Utilization float64
}

// Add folds one partitioner record into the aggregate.
func (pa *PartAggregate) Add(s *finegrain.PartitionStats) {
	if s == nil {
		return
	}
	pa.Instances++
	pa.Bisections += s.Bisections
	pa.FMPasses += s.FMPasses
	pa.FMMoves += s.FMMoves
	pa.FMRollbacks += s.FMRollbacks
	pa.CoarsenTime += s.CoarsenTime
	pa.InitialTime += s.InitialTime
	pa.RefineTime += s.RefineTime
	pa.TotalTime += s.TotalTime
	pa.Utilization += (s.Utilization - pa.Utilization) / float64(pa.Instances)
}

// Merge folds another aggregate into this one.
func (pa *PartAggregate) Merge(o *PartAggregate) {
	if o == nil || o.Instances == 0 {
		return
	}
	total := pa.Instances + o.Instances
	pa.Utilization = (pa.Utilization*float64(pa.Instances) + o.Utilization*float64(o.Instances)) / float64(total)
	pa.Instances = total
	pa.Bisections += o.Bisections
	pa.FMPasses += o.FMPasses
	pa.FMMoves += o.FMMoves
	pa.FMRollbacks += o.FMRollbacks
	pa.CoarsenTime += o.CoarsenTime
	pa.InitialTime += o.InitialTime
	pa.RefineTime += o.RefineTime
	pa.TotalTime += o.TotalTime
}

// Averaged holds per-instance metrics averaged over seeds.
type Averaged struct {
	Model     Model
	K         int
	ScaledTot float64
	ScaledMax float64
	AvgMsgs   float64
	Imbalance float64
	Seconds   float64
	Runs      int
	// Part aggregates partitioner phase statistics over the seeds;
	// non-nil only when CollectStats was configured.
	Part *PartAggregate
}

// RunAveraged runs RunInstance for seeds 1..seeds and averages the
// metrics, mirroring the paper's 50-seed averaging per decomposition
// instance. Each run replaces o.Seed with its own seed.
func RunAveraged(a *sparse.CSR, k int, model Model, seeds int, o finegrain.Options) (*Averaged, error) {
	if seeds < 1 {
		seeds = 1
	}
	avg := &Averaged{Model: model, K: k}
	for s := 1; s <= seeds; s++ {
		o.Seed = uint64(s) * 0x9e3779b9
		res, err := RunInstance(a, k, model, o)
		if err != nil {
			return nil, err
		}
		avg.ScaledTot += res.ScaledTot
		avg.ScaledMax += res.ScaledMax
		avg.AvgMsgs += res.AvgMsgs
		avg.Imbalance += res.Imbalance
		avg.Seconds += res.Seconds
		avg.Runs++
		if res.PartStats != nil {
			if avg.Part == nil {
				avg.Part = &PartAggregate{}
			}
			avg.Part.Add(res.PartStats)
		}
	}
	f := float64(avg.Runs)
	avg.ScaledTot /= f
	avg.ScaledMax /= f
	avg.AvgMsgs /= f
	avg.Imbalance /= f
	avg.Seconds /= f
	return avg, nil
}
