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

// Model is a decomposition method: a finegrain registry name, or
// "checkerboard", the prior-art 2D baseline the paper cites
// (Hendrickson et al.; Lewis & van de Geijn) that blocks the matrix onto
// a near-square processor grid with no explicit communication
// minimization. The checkerboard is the one harness-local model:
// RunInstance builds it itself.
type Model = string

// Models lists the three methods of Table 2 in column order: the 1D
// standard graph model (MeTiS-style partitioner), the 1D column-net
// hypergraph model (PaToH-style partitioner) and the paper's 2D
// fine-grain hypergraph model.
func Models() []Model { return []Model{"graph", "hypergraph", "finegrain"} }

// AllModels additionally includes the checkerboard prior-art baseline.
func AllModels() []Model { return append(Models(), "checkerboard") }

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
	if model == "checkerboard" {
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
		dec, err := finegrain.DecomposeModel(model, a, k, o)
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
	Model Model
	K     int
	// Cut is the partitioner's objective (RunResult.Cutsize).
	Cut       float64
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
		avg.add(&Averaged{
			Cut: float64(res.Cutsize), ScaledTot: res.ScaledTot, ScaledMax: res.ScaledMax,
			AvgMsgs: res.AvgMsgs, Imbalance: res.Imbalance, Seconds: res.Seconds,
		})
		if res.PartStats != nil {
			if avg.Part == nil {
				avg.Part = &PartAggregate{}
			}
			avg.Part.Add(res.PartStats)
		}
	}
	avg.finish()
	return avg, nil
}

// add folds src's metrics into the running sums of a and counts one
// more run; finish turns the sums into means.
func (a *Averaged) add(src *Averaged) {
	a.Cut += src.Cut
	a.ScaledTot += src.ScaledTot
	a.ScaledMax += src.ScaledMax
	a.AvgMsgs += src.AvgMsgs
	a.Imbalance += src.Imbalance
	a.Seconds += src.Seconds
	a.Runs++
}

func (a *Averaged) finish() {
	if a.Runs == 0 {
		return
	}
	f := float64(a.Runs)
	a.Cut /= f
	a.ScaledTot /= f
	a.ScaledMax /= f
	a.AvgMsgs /= f
	a.Imbalance /= f
	a.Seconds /= f
}
