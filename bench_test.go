// Benchmarks regenerating the paper's evaluation artifacts. Each
// table/figure has a benchmark family:
//
//   - BenchmarkTable1Properties — Table 1 (matrix generation + structure
//     statistics of every catalog matrix).
//   - BenchmarkTable2 — Table 2: every catalog matrix × K ∈ {16,32,64} ×
//     the three decomposition models. Custom metrics report exactly the
//     columns the paper prints: scaled total volume ("tot/n"), scaled
//     max per-processor volume ("max/n"), average messages per
//     processor ("msgs/proc") and percent load imbalance ("imb%"). The
//     ns/op column reproduces the "time" column (the paper normalizes
//     by the graph model; divide two benchmark results to compare).
//   - BenchmarkFigure1 — building and rendering the Figure 1
//     dependency-relation example.
//   - BenchmarkCheckerboardBaseline — the prior-art 2D blocking
//     baseline against the fine-grain model.
//   - BenchmarkSpMV — the simulator executing a decomposed multiply.
//
// Matrices are shrunk by FINEGRAIN_BENCH_SCALE (default 0.05) so the
// full sweep finishes in minutes; volumes are dimension-scaled, so the
// paper's comparisons (who wins, by what factor) survive. Run
// cmd/experiments for larger scales.
package finegrain_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	finegrain "finegrain"
	"finegrain/internal/core"
	"finegrain/internal/experiments"
	"finegrain/internal/hgpart"
	"finegrain/internal/hypergraph"
	"finegrain/internal/kernel"
	"finegrain/internal/matgen"
	"finegrain/internal/mediumgrain"
	"finegrain/internal/sparse"
	"finegrain/internal/spgemm"
	"finegrain/internal/spmv"
)

func benchScale() float64 {
	if s := os.Getenv("FINEGRAIN_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

func genCached(name string, scale float64) *sparse.CSR {
	key := fmt.Sprintf("%s@%g", name, scale)
	if m, ok := benchMatrices[key]; ok {
		return m
	}
	spec, err := matgen.Lookup(name)
	if err != nil {
		panic(err)
	}
	m := spec.Scaled(scale).Generate(experiments.MatrixSeed(name))
	benchMatrices[key] = m
	return m
}

var benchMatrices = map[string]*sparse.CSR{}

// BenchmarkTable1Properties regenerates Table 1: synthesize each test
// matrix and compute its structure statistics. Metrics report the
// table's columns for the generated stand-in.
func BenchmarkTable1Properties(b *testing.B) {
	scale := benchScale()
	for _, spec := range matgen.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var st sparse.Stats
			for i := 0; i < b.N; i++ {
				a := spec.Scaled(scale).Generate(experiments.MatrixSeed(spec.Name))
				st = a.ComputeStats()
			}
			b.ReportMetric(float64(st.NNZ), "nnz")
			b.ReportMetric(float64(st.PooledMin), "min")
			b.ReportMetric(float64(st.PooledMax), "max")
			b.ReportMetric(st.PooledAvg, "avg")
		})
	}
}

// BenchmarkTable2 regenerates Table 2 cell by cell.
func BenchmarkTable2(b *testing.B) {
	scale := benchScale()
	for _, spec := range matgen.Catalog() {
		for _, k := range []int{16, 32, 64} {
			for _, model := range experiments.Models() {
				name := fmt.Sprintf("%s/K=%d/%s", spec.Name, k, model)
				matName := spec.Name
				b.Run(name, func(b *testing.B) {
					a := genCached(matName, scale)
					var res *experiments.RunResult
					var err error
					for i := 0; i < b.N; i++ {
						res, err = experiments.RunInstance(a, k, model, finegrain.Options{Seed: uint64(i + 1)})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(res.ScaledTot, "tot/n")
					b.ReportMetric(res.ScaledMax, "max/n")
					b.ReportMetric(res.AvgMsgs, "msgs/proc")
					b.ReportMetric(res.Imbalance, "imb%")
				})
			}
		}
	}
}

// BenchmarkTable2Summary runs the whole sweep once per iteration and
// reports the overall averages — the bottom block of Table 2 and the
// headline reduction percentages.
func BenchmarkTable2Summary(b *testing.B) {
	scale := benchScale()
	var res *experiments.Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table2(experiments.Table2Config{
			Scale: scale,
			Ks:    []int{16, 32, 64},
			Seeds: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	g := res.Overall["graph"]
	h := res.Overall["hypergraph"]
	f := res.Overall["finegrain"]
	b.ReportMetric(g.ScaledTot, "graph-tot/n")
	b.ReportMetric(h.ScaledTot, "hg1d-tot/n")
	b.ReportMetric(f.ScaledTot, "fg2d-tot/n")
	b.ReportMetric(100*(1-f.ScaledTot/g.ScaledTot), "vs-graph-%")
	b.ReportMetric(100*(1-f.ScaledTot/h.ScaledTot), "vs-hg1d-%")
}

// BenchmarkFigure1 regenerates the Figure 1 dependency-relation view.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteFigure1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckerboardBaseline measures the prior-art 2D blocking
// baseline the paper cites (no communication minimization) against the
// fine-grain model on the same matrix.
func BenchmarkCheckerboardBaseline(b *testing.B) {
	a := genCached("cq9", benchScale())
	for _, model := range []experiments.Model{"checkerboard", "finegrain"} {
		b.Run(model, func(b *testing.B) {
			var res *experiments.RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunInstance(a, 16, model, finegrain.Options{Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ScaledTot, "tot/n")
			b.ReportMetric(res.AvgMsgs, "msgs/proc")
		})
	}
}

// BenchmarkSpMV times the message-passing simulator on a decomposed
// multiply (the kernel the decompositions exist to accelerate).
func BenchmarkSpMV(b *testing.B) {
	a := genCached("ken-11", benchScale())
	dec, err := finegrain.Decompose2D(a, 16, finegrain.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i % 13)
	}
	y := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Multiply(x, y, finegrain.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// spdForm returns the graph Laplacian of a's symmetrized off-diagonal
// pattern plus the identity: symmetric and strictly diagonally dominant
// with a positive diagonal, hence SPD — the form perfbench's solve
// workload gives its catalog matrices.
func spdForm(a *sparse.CSR) *sparse.CSR {
	n := a.Rows
	nbrs := make([][]int, n)
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i && j < n {
				nbrs[i] = append(nbrs[i], j)
				nbrs[j] = append(nbrs[j], i)
			}
		}
	}
	coo := sparse.NewCOO(n, n)
	for i, row := range nbrs {
		slices.Sort(row)
		row = slices.Compact(row)
		coo.Add(i, i, float64(len(row)+1))
		for _, j := range row {
			coo.Add(i, j, -1)
		}
	}
	return coo.ToCSR()
}

// BenchmarkSessionSolve times the warm solve path a session serves: a
// 1-RHS and an 8-RHS Session.Solve to 1e-8 on the fine-grain
// decomposition of nl's SPD form at paper size, K=64, Workers 1 — the
// per-layer view of what perfbench's solve workload times. Beside ns/op
// it reports ns per right-hand side and the block iterations of one
// solve. With FINEGRAIN_BLOCK_SMOKE set (`make bench-block-smoke`) the
// matrix is shrunken as in BenchmarkBlockSpMV.
func BenchmarkSessionSolve(b *testing.B) {
	scale := 1.0
	if os.Getenv("FINEGRAIN_BLOCK_SMOKE") != "" {
		scale = benchScale()
	}
	a := spdForm(genCached("nl", scale))
	dec, err := finegrain.DecomposeModel("finegrain", a, 64, finegrain.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := finegrain.NewSession(dec, finegrain.SessionOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, n := range []int{1, 8} {
		B := stackedB(a.Rows, n)
		b.Run(fmt.Sprintf("nrhs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			iters := 0
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(B, n, finegrain.SolveOptions{Tol: 1e-8})
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllConverged() {
					b.Fatalf("n=%d: not converged after %d block iterations", n, res.BlockIterations)
				}
				iters = res.BlockIterations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rhs")
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// partitionSamples is how many timed partitions the Workers sweep takes
// per worker count. Samples alternate between the worker counts, so
// drift on a shared host lands on every count alike.
const partitionSamples = 5

type partitionBenchRecord struct {
	Workers int `json:"workers"`
	// NsPerOp is the median of the samples; MinNsPerOp and MaxNsPerOp
	// bound their spread.
	NsPerOp     float64   `json:"ns_per_op"`
	MinNsPerOp  float64   `json:"min_ns_per_op"`
	MaxNsPerOp  float64   `json:"max_ns_per_op"`
	SamplesNs   []float64 `json:"samples_ns"`
	AllocsPerOp float64   `json:"allocs_per_op"`
	BytesPerOp  float64   `json:"bytes_per_op"`
}

type partitionBenchReport struct {
	Matrix string `json:"matrix"`
	NNZ    int    `json:"nnz"`
	K      int    `json:"k"`
	// GOMAXPROCS records how many CPUs the measuring host exposed:
	// speedup figures are only meaningful when it exceeds 1.
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Runs       []partitionBenchRecord `json:"runs"`
	// Speedup is the ratio of the first and last worker counts' median
	// ns/op.
	Speedup float64 `json:"speedup"`
}

// sampleSpread returns the median, minimum and maximum of samples.
func sampleSpread(samples []float64) (median, lo, hi float64) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2], sorted[0], sorted[len(sorted)-1]
}

// partitionWorkerSweep times the fine-grain partition of a at K=k for
// each worker count, checks every count yields the byte-identical
// partition, and returns per-count time and allocation figures. After
// one warm-up partition per count it takes partitionSamples timed
// samples per count, alternating between the counts, and records their
// median, minimum and maximum. Allocations are the Mallocs delta around
// each timed call, averaged — the whole-process count, which for a
// single-threaded sweep is the partitioner's own footprint.
func partitionWorkerSweep(b *testing.B, name string, a *sparse.CSR, k int, workerCounts []int) partitionBenchReport {
	fg, err := finegrain.BuildFineGrain(a)
	if err != nil {
		b.Fatal(err)
	}
	report := partitionBenchReport{Matrix: name, NNZ: a.NNZ(), K: k, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	partition := func(workers int) []int {
		opts := hgpart.DefaultOptions()
		opts.Workers = workers
		p, err := hgpart.Partition(fg.H, k, opts)
		if err != nil {
			b.Fatal(err)
		}
		return p.Parts
	}
	// Warm-up: spawn the parked workers and grow their arenas to this
	// problem's size, so the samples reflect the steady state a server
	// reaches rather than one-time setup.
	ref := partition(workerCounts[0])
	for _, workers := range workerCounts[1:] {
		partition(workers)
	}
	samples := make([][]float64, len(workerCounts))
	mallocs := make([]uint64, len(workerCounts))
	allocBytes := make([]uint64, len(workerCounts))
	var ms0, ms1 runtime.MemStats
	for i := 0; i < partitionSamples; i++ {
		for c, workers := range workerCounts {
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			parts := partition(workers)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			samples[c] = append(samples[c], float64(d.Nanoseconds()))
			mallocs[c] += ms1.Mallocs - ms0.Mallocs
			allocBytes[c] += ms1.TotalAlloc - ms0.TotalAlloc
			if !slicesEqual(ref, parts) {
				b.Fatalf("%s: workers=%d produced a different partition than workers=%d", name, workers, workerCounts[0])
			}
		}
	}
	for c, workers := range workerCounts {
		rec := partitionBenchRecord{
			Workers:     workers,
			SamplesNs:   samples[c],
			AllocsPerOp: float64(mallocs[c]) / partitionSamples,
			BytesPerOp:  float64(allocBytes[c]) / partitionSamples,
		}
		rec.NsPerOp, rec.MinNsPerOp, rec.MaxNsPerOp = sampleSpread(samples[c])
		report.Runs = append(report.Runs, rec)
		b.Logf("%s/K=%d/workers=%d: median %.3fs (min %.3fs, max %.3fs) over %d samples",
			name, k, workers, rec.NsPerOp/1e9, rec.MinNsPerOp/1e9, rec.MaxNsPerOp/1e9, partitionSamples)
	}
	if n := len(report.Runs); n > 1 && report.Runs[n-1].NsPerOp > 0 {
		report.Speedup = report.Runs[0].NsPerOp / report.Runs[n-1].NsPerOp
	}
	return report
}

// BenchmarkPartitionWorkers sweeps Options.Workers on the fine-grain
// model of two catalog matrices at paper size — "nl" (~105k nonzeros,
// the largest) at K=64 and "ken-11" at K=16 — checking that every
// worker count yields the byte-identical partition, and writes the
// median, minimum and maximum ns/op of partitionSamples alternating
// samples, with allocs/op and bytes/op, per worker count to
// BENCH_partition.json.
//
// When FINEGRAIN_SCALING_FLOOR is set (see `make bench-scaling`), the
// sweep additionally fails if the multi-worker speedup of the medians on
// nl/K=64 drops below that floor — the CI gate for ROADMAP item 1. The gate only
// fires on hosts with more than one CPU: on a single-core machine the
// parallel path still runs (and determinism is still asserted) but no
// speedup is physically possible, so the report records gomaxprocs and
// skips enforcement.
func BenchmarkPartitionWorkers(b *testing.B) {
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		// Single-CPU machine: still exercise the parallel path (the
		// speedup just won't exceed 1).
		workerCounts[1] = 8
	}
	reports := []partitionBenchReport{
		partitionWorkerSweep(b, "nl", genCached("nl", 1.0), 64, workerCounts),
		partitionWorkerSweep(b, "ken-11", genCached("ken-11", 1.0), 16, workerCounts),
	}
	out := struct {
		Benchmarks []partitionBenchReport `json:"benchmarks"`
	}{Benchmarks: reports}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_partition.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	if floorStr := os.Getenv("FINEGRAIN_SCALING_FLOOR"); floorStr != "" {
		floor, err := strconv.ParseFloat(floorStr, 64)
		if err != nil {
			b.Fatalf("FINEGRAIN_SCALING_FLOOR=%q: %v", floorStr, err)
		}
		if runtime.GOMAXPROCS(0) < 2 {
			b.Logf("scaling floor %.2fx not enforced: host has %d CPU", floor, runtime.GOMAXPROCS(0))
		} else if got := reports[0].Speedup; got < floor {
			b.Fatalf("nl/K=64 speedup %.2fx with %d workers is below floor %.2fx",
				got, workerCounts[len(workerCounts)-1], floor)
		}
	}
}

// BenchmarkPartitionSmall is the quick-feedback variant of the sweep
// (`make bench-quick`): one small matrix, serial and parallel, allocs
// reported, no JSON artifact. Use it to sanity-check a hot-path change
// in seconds before paying for the full paper-size sweep.
func BenchmarkPartitionSmall(b *testing.B) {
	a := genCached("ken-11", 0.1)
	fg, err := finegrain.BuildFineGrain(a)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	if workerCounts[1] == 1 {
		workerCounts[1] = 8
	}
	var ref []int
	for _, workers := range workerCounts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var p *hypergraph.Partition
			for i := 0; i < b.N; i++ {
				opts := hgpart.DefaultOptions()
				opts.Seed = 1
				opts.Workers = workers
				p, err = hgpart.Partition(fg.H, 16, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			if ref == nil {
				ref = p.Parts
			} else if !slicesEqual(ref, p.Parts) {
				b.Fatal("worker counts disagree on the partition")
			}
		})
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkModelBuild times hypergraph construction alone, one
// sub-benchmark per production hypergraph model: on a square matrix
// the paper's fine-grain model (2× the pins and nets of the 1D model,
// its cost discussion), the rectangular fine-grain variant, the 1D
// column-net baseline and medium-grain; on C = A·A the two SpGEMM
// models, whose builds include the symbolic product. B/op and
// allocs/op are the construction's whole allocation.
func BenchmarkModelBuild(b *testing.B) {
	models := []struct {
		name, matrix string
		build        func(*sparse.CSR) (any, error)
	}{
		{"finegrain", "cre-b", func(a *sparse.CSR) (any, error) { return core.BuildFineGrain(a) }},
		{"finegrain-rect", "cre-b", func(a *sparse.CSR) (any, error) { return core.BuildRectFineGrain(a) }},
		{"columnnet", "cre-b", func(a *sparse.CSR) (any, error) { return core.BuildColumnNet(a) }},
		{"mediumgrain", "cre-b", func(a *sparse.CSR) (any, error) { return mediumgrain.Build(a) }},
		{"spgemm-finegrain", "ken-11", func(a *sparse.CSR) (any, error) { return spgemm.BuildFineGrain(a, a) }},
		{"spgemm-rowwise", "ken-11", func(a *sparse.CSR) (any, error) { return spgemm.BuildRowwise(a, a) }},
	}
	for _, m := range models {
		a := genCached(m.matrix, benchScale())
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.build(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockSamples is how many timed samples BenchmarkBlockSpMV takes of
// the single-Exec baseline and of every batch width. Samples alternate
// between the baseline and the widths, so drift on a shared host lands
// on all of them alike.
const blockSamples = 5

type blockBenchRecord struct {
	NRHS int `json:"nrhs"`
	// NsPerOp is the median sample of one ExecBlock call over the whole
	// batch; MinNsPerOp and MaxNsPerOp bound the samples' spread.
	NsPerOp    float64 `json:"ns_per_op"`
	MinNsPerOp float64 `json:"min_ns_per_op"`
	MaxNsPerOp float64 `json:"max_ns_per_op"`
	NsPerRHS   float64 `json:"ns_per_rhs"`
	// Speedup is nrhs single Execs over one ExecBlock, medians in wall
	// clock — what batching buys beyond the message amortization.
	Speedup     float64 `json:"speedup_vs_n_execs"`
	Words       int     `json:"words"`
	WordsPerRHS int     `json:"words_per_rhs"`
	// Messages must equal the single-multiply count at every nrhs —
	// the amortization the block path exists for.
	Messages int `json:"messages"`
}

type blockBenchReport struct {
	Matrix     string `json:"matrix"`
	NNZ        int    `json:"nnz"`
	K          int    `json:"k"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Samples    int    `json:"samples"`
	// SingleExec is the reused-plan single-RHS baseline the speedups
	// are measured against, at the same worker count: the median sample
	// and the samples' spread.
	SingleExecNs    float64            `json:"single_exec_ns"`
	SingleExecMinNs float64            `json:"single_exec_min_ns"`
	SingleExecMaxNs float64            `json:"single_exec_max_ns"`
	SingleMessages  int                `json:"single_messages"`
	Runs            []blockBenchRecord `json:"runs"`
	// BestSpeedup is the largest speedup_vs_n_execs over the sweep —
	// the figure the FINEGRAIN_BLOCK_FLOOR gate checks.
	BestSpeedup float64 `json:"best_speedup"`
}

// BenchmarkBlockSpMV measures the multi-RHS batch path: one ExecBlock
// over N stacked right-hand sides against N single Execs on the same
// reused plan (nl at paper size, K=64, N ∈ {1,4,8,16}), asserting the
// block path allocates nothing in steady state and sends exactly the
// single-multiply message count at every batch width. It takes
// blockSamples samples of the baseline and of every width, alternating
// between them, and writes their median, minimum and maximum to
// BENCH_block.json.
//
// With FINEGRAIN_BLOCK_SMOKE set (`make ci`), the sweep runs one
// iteration of one sample per width on a shrunken matrix and writes no
// artifact.
// With FINEGRAIN_BLOCK_FLOOR set (`make bench-block`), the run fails
// if the best wall-clock speedup over N single Execs drops below the
// floor — enforced only on hosts with more than one CPU, mirroring
// the locality gate.
func BenchmarkBlockSpMV(b *testing.B) {
	smoke := os.Getenv("FINEGRAIN_BLOCK_SMOKE") != ""
	scale, iters, samples := 1.0, 100, blockSamples
	if smoke {
		scale, iters, samples = benchScale(), 1, 1
	}
	a := genCached("nl", scale)
	const k = 64
	dec, err := finegrain.Decompose2D(a, k, finegrain.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := spmv.NewPlan(dec.Assignment)
	if err != nil {
		b.Fatal(err)
	}
	defer pl.Close()
	workers := runtime.GOMAXPROCS(0)
	opts := spmv.ExecOptions{Workers: workers}
	ctr := pl.Counters()
	report := blockBenchReport{
		Matrix: "nl", NNZ: a.NNZ(), K: k, GOMAXPROCS: workers, Samples: samples,
		SingleMessages: ctr.TotalMessages(),
	}

	widths := []int{1, 4, 8, 16}
	maxN := widths[len(widths)-1]
	X := make([]float64, maxN*a.Cols)
	for i := range X {
		X[i] = 1 / float64(i+1)
	}
	Y := make([]float64, maxN*a.Rows)
	single := func() error { return pl.Exec(X[:a.Cols], Y[:a.Rows], opts) }
	block := func(n int) func() error {
		return func() error { return pl.ExecBlock(X[:n*a.Cols], Y[:n*a.Rows], n, opts) }
	}
	// timed returns the mean ns of iters calls of f.
	timed := func(f func() error) float64 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}

	// Warm up every path (growing the block scratch and parking the
	// workers), then pin zero steady-state allocations and the message
	// amortization per width.
	if err := single(); err != nil {
		b.Fatal(err)
	}
	for _, n := range widths {
		run := block(n)
		if err := run(); err != nil {
			b.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		})
		if allocs != 0 {
			b.Fatalf("ExecBlock(n=%d) allocated %.0f objects/op in steady state, want 0", n, allocs)
		}
		if bc := pl.BlockCounters(n); bc.TotalMessages() != report.SingleMessages {
			b.Fatalf("ExecBlock(n=%d) sends %d messages, single Exec sends %d — amortization broken",
				n, bc.TotalMessages(), report.SingleMessages)
		}
	}

	singleNs := make([]float64, 0, samples)
	blockNs := make([][]float64, len(widths))
	for s := 0; s < samples; s++ {
		singleNs = append(singleNs, timed(single))
		for w, n := range widths {
			blockNs[w] = append(blockNs[w], timed(block(n)))
		}
	}
	report.SingleExecNs, report.SingleExecMinNs, report.SingleExecMaxNs = sampleSpread(singleNs)
	for w, n := range widths {
		bc := pl.BlockCounters(n)
		rec := blockBenchRecord{
			NRHS:  n,
			Words: bc.TotalWords(), WordsPerRHS: bc.TotalWords() / n,
			Messages: bc.TotalMessages(),
		}
		rec.NsPerOp, rec.MinNsPerOp, rec.MaxNsPerOp = sampleSpread(blockNs[w])
		rec.NsPerRHS = rec.NsPerOp / float64(n)
		if rec.NsPerOp > 0 {
			rec.Speedup = float64(n) * report.SingleExecNs / rec.NsPerOp
		}
		b.Logf("nrhs=%d: median %.0f ns/op (min %.0f, max %.0f) over %d samples, %.2fx %d single Execs",
			n, rec.NsPerOp, rec.MinNsPerOp, rec.MaxNsPerOp, samples, rec.Speedup, n)
		report.Runs = append(report.Runs, rec)
		report.BestSpeedup = max(report.BestSpeedup, rec.Speedup)
	}
	b.ReportMetric(report.BestSpeedup, "best-speedup")

	if smoke {
		return
	}
	out := struct {
		Benchmarks []blockBenchReport `json:"benchmarks"`
	}{Benchmarks: []blockBenchReport{report}}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_block.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	if floorStr := os.Getenv("FINEGRAIN_BLOCK_FLOOR"); floorStr != "" {
		floor, err := strconv.ParseFloat(floorStr, 64)
		if err != nil {
			b.Fatalf("FINEGRAIN_BLOCK_FLOOR=%q: %v", floorStr, err)
		}
		if runtime.GOMAXPROCS(0) < 2 {
			b.Logf("block floor %.2fx not enforced: host has %d CPU (best speedup %.2fx)",
				floor, runtime.GOMAXPROCS(0), report.BestSpeedup)
		} else if report.BestSpeedup < floor {
			b.Fatalf("best block speedup %.2fx is below floor %.2fx", report.BestSpeedup, floor)
		}
	}
}

type localityBenchRecord struct {
	Mode    string  `json:"mode"` // "baseline" (natural order) or "reordered"
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	GFLOPs  float64 `json:"gflops"`
}

type localityBenchReport struct {
	Matrix string `json:"matrix"`
	N      int    `json:"n"`
	NNZ    int    `json:"nnz"`
	K      int    `json:"k"`
	Blocks int    `json:"blocks"`
	// GOMAXPROCS records how many CPUs the measuring host exposed. The
	// locality speedup is a cache effect, so it can exceed 1 even on one
	// CPU — but the absolute GFLOP/s only scale with real cores.
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Runs       []localityBenchRecord `json:"runs"`
	// Speedup is baseline ns over reordered ns at equal worker count:
	// what the cache-blocking permutation alone buys.
	Speedup float64 `json:"speedup"`
}

// localitySweep decomposes a with the locality model, decodes the
// cache-blocking permutation, and times the real kernel on both
// layouts with kernel.TimeLayouts over the given number of rounds.
func localitySweep(b *testing.B, name string, a *sparse.CSR, k, rounds int) localityBenchReport {
	dec, err := finegrain.DecomposeLocality(a, k, finegrain.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	_, perm, err := finegrain.Reorder(dec, finegrain.Options{})
	if err != nil {
		b.Fatal(err)
	}
	t, err := kernel.TimeLayouts(a, perm, rounds, nil)
	if err != nil {
		b.Fatal(err)
	}
	flops := 2 * float64(a.NNZ())
	workers := runtime.GOMAXPROCS(0)
	report := localityBenchReport{
		Matrix: name, N: a.Rows, NNZ: a.NNZ(), K: k,
		Blocks: t.Blocks, GOMAXPROCS: workers,
		Runs: []localityBenchRecord{
			{Mode: "baseline", Workers: workers, NsPerOp: t.NaturalNs, GFLOPs: flops / t.NaturalNs},
			{Mode: "reordered", Workers: workers, NsPerOp: t.PermutedNs, GFLOPs: flops / t.PermutedNs},
		},
		Speedup: t.NaturalNs / t.PermutedNs,
	}
	for _, r := range report.Runs {
		b.Run(fmt.Sprintf("%s/K=%d/%s", name, k, r.Mode), func(b *testing.B) {
			b.ReportMetric(r.GFLOPs, "gflops")
		})
	}
	return report
}

// BenchmarkLocality measures what the cache-blocking reordering buys on
// real hardware: wall-clock ns/op and GFLOP/s of the real multithreaded
// kernel (internal/kernel) on the nl, ken-11 and finan512 matrices at
// paper size, natural order vs. the locality model's permutation,
// written to BENCH_locality.json.
//
// K is chosen per matrix so a part's x-window lands under the L1d size
// (a K sweep on this host: finan512 peaks at K=32 with ~1.3x, nl at
// K=8, ken-11 is flat). The small matrices stream ~1 MB per multiply —
// inside L2, where the natural generator order is already cache-friendly
// and reordering is a wash; finan512 streams ~7 MB with 600 KB of x, and
// the hub-block structure is where the permutation genuinely pays.
//
// With FINEGRAIN_LOCALITY_SMOKE set (`make bench-locality-smoke`, part
// of `make ci`), the sweep runs one timing round per layout on shrunken
// matrices and writes no artifact — a wiring check, not a measurement.
// With FINEGRAIN_LOCALITY_FLOOR set (`make bench-locality`), the run
// fails if the best reordered speedup drops below the floor — enforced
// only on hosts with more than one CPU, mirroring the bench-scaling
// gate; single-CPU hosts still record honest gomaxprocs figures.
func BenchmarkLocality(b *testing.B) {
	if os.Getenv("FINEGRAIN_LOCALITY_SMOKE") != "" {
		scale := benchScale()
		localitySweep(b, "nl", genCached("nl", scale), 8, 1)
		localitySweep(b, "ken-11", genCached("ken-11", scale), 8, 1)
		return
	}
	reports := []localityBenchReport{
		localitySweep(b, "nl", genCached("nl", 1.0), 8, 9),
		localitySweep(b, "ken-11", genCached("ken-11", 1.0), 64, 9),
		localitySweep(b, "finan512", genCached("finan512", 1.0), 32, 9),
	}
	out := struct {
		Benchmarks []localityBenchReport `json:"benchmarks"`
	}{Benchmarks: reports}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_locality.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	if floorStr := os.Getenv("FINEGRAIN_LOCALITY_FLOOR"); floorStr != "" {
		floor, err := strconv.ParseFloat(floorStr, 64)
		if err != nil {
			b.Fatalf("FINEGRAIN_LOCALITY_FLOOR=%q: %v", floorStr, err)
		}
		best := 0.0
		for _, r := range reports {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		if runtime.GOMAXPROCS(0) < 2 {
			b.Logf("locality floor %.2fx not enforced: host has %d CPU (best speedup %.2fx)",
				floor, runtime.GOMAXPROCS(0), best)
		} else if best < floor {
			b.Fatalf("best reordered speedup %.2fx is below floor %.2fx", best, floor)
		}
	}
}
