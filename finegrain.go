// Package finegrain is the public API of this repository: a from-scratch
// Go implementation of the fine-grain hypergraph model for 2D
// decomposition of sparse matrices (Çatalyürek & Aykanat, IPPS/IPDPS
// 2001), together with the 1D baselines the paper evaluates against, a
// PaToH-style multilevel hypergraph partitioner, a MeTiS-style graph
// partitioner, a communication analyzer, and a message-passing SpMV
// simulator that executes decompositions end to end.
//
// # Quick start
//
//	a, err := finegrain.Generate("ken-11", 0.1, 42) // synthetic catalog matrix
//	if err != nil { ... }
//	dec, err := finegrain.Decompose2D(a, 16, finegrain.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(dec.Stats.TotalVolume, dec.Stats.ImbalancePct)
//
// Every decomposition model is a registry entry (Models, DecomposeModel),
// and every one runs the same pipeline: build the model, partition it,
// decode the parts, measure the communication. Only the model changes.
// The paper's Table 2 columns are three of them:
//
//   - "finegrain" (Decompose2D): the proposed fine-grain model — one
//     hypergraph vertex per nonzero, row nets model folds, column nets
//     model expands; minimizing connectivity−1 cutsize minimizes
//     communication volume exactly.
//   - "hypergraph" (Decompose1D): the 1D column-net (rowwise)
//     hypergraph model.
//   - "graph" (Decompose1DGraph): the standard graph model baseline.
//
// The registry adds the medium-grain, locality, SpGEMM and auto models.
// Every model returns a Decomposition holding the executable
// Assignment (nonzero + vector ownership), the measured communication
// Stats, and the partitioner's objective value. Open a Session
// (NewSession) on a decomposition to multiply and solve with it
// repeatedly on simulated processors; Verify checks one multiply
// against the serial kernel and the analyzed volume.
//
// # Errors
//
// The entry points return *Error values carrying an ErrorCode, so
// callers can branch without parsing messages:
//
//	BadMatrix   the input matrix is missing, empty, or not square
//	BadK        the processor count is out of range for the model
//	BadModel    the model name is not in the registry
//	Canceled    Options.Ctx was canceled or its deadline passed
//	Internal    any other failure inside the pipeline
//
// Use ErrorCodeOf to classify any error from this package.
//
// # Observability
//
// Pass a Trace (NewTrace) in Options.Trace to record phase spans —
// coarsening levels, FM passes, recursion branches — and export them
// as Chrome trace-event JSON for https://ui.perfetto.dev. A nil Trace
// costs nothing. See OBSERVABILITY.md for the span taxonomy.
package finegrain

import (
	"context"
	"errors"
	"fmt"
	"math"

	"finegrain/internal/comm"
	"finegrain/internal/core"
	"finegrain/internal/gpart"
	"finegrain/internal/graph"
	"finegrain/internal/hgpart"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
	"finegrain/internal/mediumgrain"
	"finegrain/internal/obs"
	"finegrain/internal/reorder"
	"finegrain/internal/sparse"
	"finegrain/internal/spgemm"
	"finegrain/internal/spmv"
)

// ErrorCode classifies a decomposition failure so callers (and the
// partition server's JSON error envelope) can react without parsing
// message strings.
type ErrorCode string

const (
	// BadMatrix: the input matrix is missing, empty, or not square.
	BadMatrix ErrorCode = "BadMatrix"
	// BadK: the processor count is out of range for the model.
	BadK ErrorCode = "BadK"
	// BadModel: the model name is not in the registry.
	BadModel ErrorCode = "BadModel"
	// Canceled: Options.Ctx was canceled or its deadline passed.
	Canceled ErrorCode = "Canceled"
	// Internal: any other failure inside the pipeline.
	Internal ErrorCode = "Internal"
)

// Error is the structured error returned by the Decompose entry points.
type Error struct {
	Code ErrorCode // machine-readable classification
	Op   string    // failing entry point, e.g. "Decompose2D"
	Msg  string    // human-readable detail
	err  error     // wrapped cause, if any
}

func (e *Error) Error() string { return "finegrain: " + e.Op + ": " + e.Msg }

// Unwrap exposes the underlying cause for errors.Is/As chains.
func (e *Error) Unwrap() error { return e.err }

// ErrorCodeOf extracts the classification of err: the Code of the
// *Error in its chain, Internal for any other non-nil error, and ""
// for nil.
func ErrorCodeOf(err error) ErrorCode {
	if err == nil {
		return ""
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return Internal
}

// classify wraps an internal pipeline error in an *Error. Context
// cancellation has its own code, non-square inputs and structurally
// empty SpGEMM products are BadMatrix, and everything else that
// survived the entry point's own validation is Internal.
func classify(op string, err error) error {
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	code := Internal
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = Canceled
	case errors.Is(err, core.ErrNotSquare), errors.Is(err, spgemm.ErrEmptyProduct):
		code = BadMatrix
	}
	return &Error{Code: code, Op: op, Msg: err.Error(), err: err}
}

// checkInput front-loads the validation every Decompose entry point
// shares: the matrix must be non-empty and square, and k must fit the
// model's vertex count (nonzeros for the fine-grain model, rows for
// the 1D models).
func checkInput(op string, a *Matrix, k, vertices int) error {
	if a == nil || a.Rows == 0 || a.Cols == 0 || a.NNZ() == 0 {
		return &Error{Code: BadMatrix, Op: op, Msg: "empty matrix"}
	}
	if a.Rows != a.Cols {
		return &Error{Code: BadMatrix, Op: op,
			Msg: fmt.Sprintf("matrix must be square, got %dx%d", a.Rows, a.Cols), err: core.ErrNotSquare}
	}
	if k < 1 {
		return &Error{Code: BadK, Op: op, Msg: fmt.Sprintf("K must be >= 1, got %d", k)}
	}
	if k > vertices {
		return &Error{Code: BadK, Op: op,
			Msg: fmt.Sprintf("K=%d exceeds the model's %d vertices", k, vertices)}
	}
	return nil
}

// Re-exported substrate types. The internal packages hold the
// implementations; these aliases make them usable through the public
// API.
type (
	// Matrix is a compressed-sparse-row matrix.
	Matrix = sparse.CSR
	// COO is a coordinate-format matrix under assembly.
	COO = sparse.COO
	// Hypergraph is the partitioning substrate of the hypergraph models.
	Hypergraph = hypergraph.Hypergraph
	// Partition is a K-way vertex partition of a hypergraph.
	Partition = hypergraph.Partition
	// Assignment is a decoded decomposition: nonzero owners plus
	// conformal x/y vector owners.
	Assignment = core.Assignment
	// Stats is the measured communication profile of an Assignment.
	Stats = comm.Stats
	// SpMVResult is the outcome of a simulated parallel multiplication.
	SpMVResult = spmv.Result
	// FineGrainModel is the paper's 2D fine-grain hypergraph model.
	FineGrainModel = core.FineGrainModel
	// ColumnNetModel is the 1D rowwise hypergraph baseline.
	ColumnNetModel = core.ColumnNetModel
	// StandardGraphModel is the 1D standard graph baseline.
	StandardGraphModel = core.StandardGraphModel
	// ReductionModel generalizes the fine-grain model to arbitrary
	// reduction problems with optional pre-assigned inputs/outputs.
	ReductionModel = core.ReductionModel
	// Task is one atomic operation of a reduction problem.
	Task = core.Task
	// ReductionOptions carries reduction pre-assignments.
	ReductionOptions = core.ReductionOptions
	// ReductionDecomposition is a decoded reduction decomposition.
	ReductionDecomposition = core.ReductionDecomposition
)

// NewCOO returns an empty coordinate-format matrix for assembly; compile
// it with (*COO).ToCSR.
func NewCOO(rows, cols int) *COO { return sparse.NewCOO(rows, cols) }

// FromEntries assembles a CSR matrix from triplets.
func FromEntries(rows, cols int, entries []sparse.Entry) *Matrix {
	return sparse.FromEntries(rows, cols, entries)
}

// Entry is a single (row, col, value) triplet.
type Entry = sparse.Entry

// Trace records phase spans from a decomposition (and any solve run on
// it) for export as Chrome trace-event JSON via its WriteJSON method —
// load the output at https://ui.perfetto.dev. Create one with NewTrace
// and pass it in Options.Trace; a nil Trace disables tracing at zero
// cost. See OBSERVABILITY.md for the recorded span taxonomy.
type Trace = obs.Trace

// NewTrace returns an empty enabled Trace.
func NewTrace() *Trace { return obs.New() }

// Options configures the decomposition pipeline.
type Options struct {
	// Ctx, when non-nil, cancels an in-flight partition: both the
	// hypergraph and graph partitioners poll it at phase boundaries and
	// the Decompose call returns a *Error with code Canceled.
	// Cancellation does not perturb the result of runs that complete.
	Ctx context.Context
	// Seed drives all randomized choices; equal seeds reproduce equal
	// decompositions.
	Seed uint64
	// Eps is the allowed load imbalance ε (default 0.03, the paper's
	// reported bound).
	Eps float64
	// Workers bounds the number of goroutines the partitioner uses, the
	// hypergraph partitioner (hgpart) and the graph partitioner (gpart)
	// alike (0 = GOMAXPROCS). The decomposition is identical for every
	// Workers value given the same Seed.
	Workers int
	// CollectStats enables the partitioner's per-phase statistics,
	// returned in Decomposition.PartStats.
	CollectStats bool
	// Trace, when non-nil, records phase spans for the whole pipeline
	// (model build, partition — down to coarsening levels and FM passes —
	// decode, measure) onto the given trace, exportable as Chrome
	// trace-event JSON via its WriteJSON method (sparsepart exposes this
	// as -trace). Tracing never alters results; nil disables it at zero
	// cost. See OBSERVABILITY.md for the span taxonomy.
	Trace *obs.Trace
}

func (o Options) hgOptions() hgpart.Options {
	opts := hgpart.DefaultOptions()
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	if o.Eps > 0 {
		opts.Eps = o.Eps
	}
	opts.Workers = o.Workers
	opts.CollectStats = o.CollectStats
	opts.Ctx = o.Ctx
	opts.Trace = o.Trace
	return opts
}

func (o Options) gOptions() gpart.Options {
	opts := gpart.DefaultOptions()
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	if o.Eps > 0 {
		opts.Eps = o.Eps
	}
	opts.Workers = o.Workers
	opts.Ctx = o.Ctx
	opts.Trace = o.Trace
	return opts
}

// PartitionStats is the hypergraph partitioner's per-phase record:
// coarsening ladder sizes, initial cut, FM pass/rollback counts, phase
// wall times and goroutine utilization.
type PartitionStats = hgpart.Stats

// Decomposition is the result of one of the Decompose entry points.
type Decomposition struct {
	// Model is the canonical registry name of the concrete model that
	// produced this decomposition. A DecomposeModel("auto", ...) call
	// records the selected model here, never "auto" — the partition
	// server keys its cache on this field, so an auto submission and an
	// explicit submission of the same concrete model coalesce.
	Model string
	// Assignment is the executable decomposition. Nil for the SpGEMM
	// models, whose ownership structure lives in SpGEMM instead.
	Assignment *Assignment
	// SpGEMM is the matrix-multiply decomposition produced by the
	// spgemm models (task owners plus A/B/C element owners for C = A·B);
	// nil for the SpMV models. Run it with ExecuteSpGEMM.
	SpGEMM *SpGEMMAssignment
	// Stats is the measured communication profile.
	Stats *Stats
	// Cutsize is the partitioner's objective value: connectivity−1 for
	// the hypergraph models (equal to Stats.TotalVolume, the paper's
	// exactness theorem), edge cut for the graph model (an
	// approximation).
	Cutsize int
	// PartStats is the partitioner's per-phase record; non-nil only when
	// Options.CollectStats was set (and never set by Decompose1DGraph,
	// whose partitioner does not collect stats).
	PartStats *PartitionStats
}

// built is a model after its build step: the hypergraph decompose
// partitions with hgpart and the decode step that reads the parts. The
// graph model, which hgpart does not partition, sets gpart instead of
// h; its decode reads the graph partition gpart kept. The SpGEMM models
// set decodeSpGEMM instead of decode.
type built struct {
	h            *hypergraph.Hypergraph
	gpart        func(k int, o gpart.Options) (edgeCut int, err error)
	decode       func(*hypergraph.Partition) (*Assignment, error)
	decodeSpGEMM func(*hypergraph.Partition) (*SpGEMMAssignment, error)
}

// decompose is the pipeline every decomposition model shares: build the
// model, partition it, decode the parts and measure the communication
// they cause (spgemm.Measure for an SpGEMM assignment), each stage under
// its own finegrain span. Only build and decode (and the graph model's
// partition call) differ between models.
func decompose(op, model string, k int, o Options, build func() (built, error)) (*Decomposition, error) {
	dsp := o.Trace.Begin("finegrain", "decompose").Arg("k", int64(k))
	defer dsp.End()
	sp := o.Trace.Begin("finegrain", "build.model")
	b, err := build()
	sp.End()
	if err != nil {
		return nil, classify(op, err)
	}
	dec := &Decomposition{Model: model}
	var p *hypergraph.Partition
	sp = o.Trace.Begin("finegrain", "partition")
	if b.gpart != nil {
		dec.Cutsize, err = b.gpart(k, o.gOptions())
	} else {
		p, dec.PartStats, err = hgpart.PartitionStats(b.h, k, o.hgOptions())
	}
	sp.End()
	if err != nil {
		return nil, classify(op, err)
	}
	sp = o.Trace.Begin("finegrain", "decode")
	if b.decodeSpGEMM != nil {
		dec.SpGEMM, err = b.decodeSpGEMM(p)
	} else {
		dec.Assignment, err = b.decode(p)
	}
	sp.End()
	if err != nil {
		return nil, classify(op, err)
	}
	sp = o.Trace.Begin("finegrain", "measure")
	if dec.SpGEMM != nil {
		dec.Stats, err = spgemm.Measure(dec.SpGEMM)
	} else {
		dec.Stats, err = comm.Measure(dec.Assignment)
	}
	sp.End()
	if err != nil {
		return nil, classify(op, err)
	}
	if p != nil {
		dec.Cutsize = p.CutsizeConnectivity(b.h)
	}
	return dec, nil
}

// Decompose2D decomposes a square sparse matrix for K processors with
// the paper's fine-grain hypergraph model. Failures are reported as
// *Error values with a classification Code.
func Decompose2D(a *Matrix, k int, o Options) (*Decomposition, error) {
	const op = "Decompose2D"
	if err := checkInput(op, a, k, nnzOf(a)); err != nil {
		return nil, err
	}
	return decompose(op, "finegrain", k, o, func() (built, error) {
		mdl, err := core.BuildFineGrain(a)
		if err != nil {
			return built{}, err
		}
		return built{h: mdl.H, decode: mdl.Decode2D}, nil
	})
}

// DecomposeMediumGrain decomposes a square sparse matrix for K
// processors with the medium-grain combined hypergraph model (Pelt &
// Bisseling, IPDPS 2014): each nonzero first joins its row or column
// group (whichever direction has fewer nonzeros), then the m+n group
// vertices are partitioned — 2D decomposition quality at close to 1D
// partitioning cost, with the same connectivity−1 exactness as the
// fine-grain model. Failures are reported as *Error values with a
// classification Code.
func DecomposeMediumGrain(a *Matrix, k int, o Options) (*Decomposition, error) {
	const op = "DecomposeMediumGrain"
	if err := checkInput(op, a, k, rowsOf(a)+rowsOf(a)); err != nil {
		return nil, err
	}
	return decompose(op, "medium_grain", k, o, func() (built, error) {
		mdl, err := mediumgrain.Build(a)
		if err != nil {
			return built{}, err
		}
		return built{h: mdl.H, decode: mdl.Decode}, nil
	})
}

// Decompose1D decomposes a square sparse matrix rowwise with the 1D
// column-net hypergraph model. Failures are reported as *Error values
// with a classification Code.
func Decompose1D(a *Matrix, k int, o Options) (*Decomposition, error) {
	return decomposeColumnNet("Decompose1D", "hypergraph", a, k, o)
}

// DecomposeLocality runs the same 1D column-net pipeline with a
// different goal: the K-way partition is read not as K processors but
// as K cache blocks of a single node. Decode the result with Reorder to
// obtain the cache-blocking permutation, or open a Session with
// CompileLocal to multiply through it — the Akbudak/Kayaaslan/Aykanat
// observation that the machinery minimizing communication volume also
// minimizes cache misses. Failures are reported as *Error values with
// a classification Code.
func DecomposeLocality(a *Matrix, k int, o Options) (*Decomposition, error) {
	return decomposeColumnNet("DecomposeLocality", "locality", a, k, o)
}

// decomposeColumnNet is the 1D column-net model behind Decompose1D and
// DecomposeLocality, which differ only in the model name they record.
func decomposeColumnNet(op, model string, a *Matrix, k int, o Options) (*Decomposition, error) {
	if err := checkInput(op, a, k, rowsOf(a)); err != nil {
		return nil, err
	}
	return decompose(op, model, k, o, func() (built, error) {
		mdl, err := core.BuildColumnNet(a)
		if err != nil {
			return built{}, err
		}
		return built{h: mdl.H, decode: mdl.Decode1D}, nil
	})
}

// Decompose1DGraph decomposes a square sparse matrix rowwise with the
// standard graph model (the paper's weaker baseline). Failures are
// reported as *Error values with a classification Code.
func Decompose1DGraph(a *Matrix, k int, o Options) (*Decomposition, error) {
	const op = "Decompose1DGraph"
	if err := checkInput(op, a, k, rowsOf(a)); err != nil {
		return nil, err
	}
	return decompose(op, "graph", k, o, func() (built, error) {
		mdl, err := core.BuildStandardGraph(a)
		if err != nil {
			return built{}, err
		}
		var gp *graph.Partition
		return built{
			gpart: func(k int, opts gpart.Options) (cut int, err error) {
				if gp, err = gpart.Partition(mdl.G, k, opts); err != nil {
					return 0, err
				}
				return gp.EdgeCut(mdl.G), nil
			},
			decode: func(*hypergraph.Partition) (*Assignment, error) { return mdl.Decode1D(gp) },
		}, nil
	})
}

// rowsOf and nnzOf report the model vertex counts checkInput compares K
// against, tolerating a nil matrix (checkInput rejects it first).
func rowsOf(a *Matrix) int {
	if a == nil {
		return 1
	}
	return a.Rows
}

func nnzOf(a *Matrix) int {
	if a == nil {
		return 1
	}
	return a.NNZ()
}

// Model describes one entry in the decomposition model registry.
type Model struct {
	// Name is the canonical model name accepted by DecomposeModel.
	Name string
	// Aliases are alternative accepted spellings.
	Aliases []string
	// Description is a one-line summary for usage text.
	Description string

	decompose func(a *Matrix, k int, o Options) (*Decomposition, error)
}

// modelRegistry is the single source of truth for the accepted model
// names: DecomposeModel, ModelNames, cmd/sparsepart's usage text and
// the partition server's request validation all derive from it.
var modelRegistry = []Model{
	{
		Name:        "finegrain",
		Aliases:     []string{"2d"},
		Description: "2D fine-grain hypergraph model (the paper's proposal; exact volume)",
		decompose:   Decompose2D,
	},
	{
		Name:        "hypergraph",
		Aliases:     []string{"1d"},
		Description: "1D rowwise column-net hypergraph model (exact volume)",
		decompose:   Decompose1D,
	},
	{
		Name:        "graph",
		Aliases:     nil,
		Description: "1D rowwise standard graph model (approximate baseline)",
		decompose:   Decompose1DGraph,
	},
	{
		Name:        "locality",
		Aliases:     []string{"cache"},
		Description: "1D column-net partition decoded as a cache-blocking reordering (single-node locality)",
		decompose:   DecomposeLocality,
	},
	{
		Name:        "medium_grain",
		Aliases:     []string{"medium"},
		Description: "2D medium-grain combined hypergraph model (Pelt-Bisseling; exact volume at near-1D cost)",
		decompose:   DecomposeMediumGrain,
	},
	{
		Name:        "spgemm",
		Aliases:     nil,
		Description: "SpGEMM fine-grain hypergraph model, squaring the input (C = A*A; exact volume)",
		decompose:   decomposeSpGEMMSelf,
	},
	{
		Name:        "spgemm_1d",
		Aliases:     nil,
		Description: "SpGEMM 1D rowwise Gustavson model, squaring the input (only B rows move; exact volume)",
		decompose:   decomposeSpGEMM1DSelf,
	},
	{
		Name:        "auto",
		Aliases:     nil,
		Description: "pick an SpMV model from structural features (SelectModel; decision recorded in Decomposition.Model)",
		// decompose is bound in init(): DecomposeAuto dispatches back
		// through the registry, which would otherwise be an
		// initialization cycle.
	},
}

func init() {
	for i := range modelRegistry {
		if modelRegistry[i].Name == "auto" {
			modelRegistry[i].decompose = DecomposeAuto
		}
	}
}

// Models returns the registered decomposition models in canonical
// order. The returned slice is a copy; mutating it does not affect the
// registry.
func Models() []Model {
	out := make([]Model, len(modelRegistry))
	copy(out, modelRegistry)
	return out
}

// LookupModel resolves a model name or alias to its registry entry.
func LookupModel(name string) (Model, bool) {
	for _, m := range modelRegistry {
		if m.Name == name {
			return m, true
		}
		for _, al := range m.Aliases {
			if al == name {
				return m, true
			}
		}
	}
	return Model{}, false
}

// ModelNames lists the accepted DecomposeModel names, canonical forms
// first, then aliases in registry order.
func ModelNames() []string {
	var names, aliases []string
	for _, m := range modelRegistry {
		names = append(names, m.Name)
		aliases = append(aliases, m.Aliases...)
	}
	return append(names, aliases...)
}

// DecomposeModel dispatches to the decomposition entry point registered
// under model (see Models). It is the shared front door of
// cmd/sparsepart and the partition server, so a model string accepted
// by one is accepted by the other.
func DecomposeModel(model string, a *Matrix, k int, o Options) (*Decomposition, error) {
	m, ok := LookupModel(model)
	if !ok {
		return nil, &Error{Code: BadModel, Op: "DecomposeModel",
			Msg: fmt.Sprintf("unknown model %q (want one of %v)", model, ModelNames())}
	}
	return m.decompose(a, k, o)
}

// Measure recomputes the communication profile of an assignment.
func Measure(asg *Assignment) (*Stats, error) { return comm.Measure(asg) }

// SaveAssignment writes a decomposition's ownership arrays to path as
// JSON (the matrix is stored separately, e.g. as .mtx).
func SaveAssignment(path string, asg *Assignment) error { return core.SaveAssignment(path, asg) }

// LoadAssignment reads ownership arrays from path and binds them to a.
func LoadAssignment(path string, a *Matrix) (*Assignment, error) {
	return core.LoadAssignment(path, a)
}

// RenderSpy draws an ASCII spy plot of a decomposition: the matrix
// down-sampled to maxDim character cells, each showing the owning
// processor of the nonzeros in it.
func RenderSpy(asg *Assignment, maxDim int) string { return core.RenderSpy(asg, maxDim) }

// BuildRectFineGrain exposes the non-symmetric fine-grain variant for
// rectangular matrices (no consistency condition; see the paper's
// Section 3 discussion of general reduction problems).
func BuildRectFineGrain(a *Matrix) (*core.RectFineGrainModel, error) {
	return core.BuildRectFineGrain(a)
}

// Generate builds a synthetic instance of one of the paper's 14 test
// matrices (Table 1) at the given scale (1 = paper size). See
// internal/matgen for the catalog and the structural families.
func Generate(name string, scale float64, seed uint64) (*Matrix, error) {
	spec, err := matgen.Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Scaled(scale).Generate(seed), nil
}

// CatalogNames lists the names of the paper's 14 test matrices.
func CatalogNames() []string {
	specs := matgen.Catalog()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// BuildFineGrain exposes the fine-grain model for callers that want to
// partition or inspect the hypergraph directly.
func BuildFineGrain(a *Matrix) (*FineGrainModel, error) { return core.BuildFineGrain(a) }

// BuildReduction builds the fine-grain hypergraph of a generic reduction
// problem; partition its H (respecting Fixed) and Decode the result.
func BuildReduction(numInputs, numOutputs int, tasks []Task, opts ReductionOptions) (*ReductionModel, error) {
	return core.BuildReduction(numInputs, numOutputs, tasks, opts)
}

// PartitionHypergraph runs the PaToH-style multilevel partitioner
// directly on a hypergraph, honoring fixed vertex assignments (fixed
// may be nil). A nil or vertex-less hypergraph is BadMatrix and K
// outside [1, |V|] is BadK.
func PartitionHypergraph(h *Hypergraph, k int, fixed []int, o Options) (*Partition, error) {
	const op = "PartitionHypergraph"
	if h == nil || h.NumVertices() == 0 {
		return nil, &Error{Code: BadMatrix, Op: op, Msg: "empty hypergraph"}
	}
	if k < 1 {
		return nil, &Error{Code: BadK, Op: op, Msg: fmt.Sprintf("K must be >= 1, got %d", k)}
	}
	if k > h.NumVertices() {
		return nil, &Error{Code: BadK, Op: op,
			Msg: fmt.Sprintf("K=%d exceeds the hypergraph's %d vertices", k, h.NumVertices())}
	}
	p, err := hgpart.PartitionFixed(h, k, fixed, o.hgOptions())
	if err != nil {
		return nil, classify(op, err)
	}
	return p, nil
}

// Verify multiplies with the decomposition through a Session and
// checks both the numeric result against the serial kernel and the
// simulator's word counts against the analytic volumes. A non-finite
// entry on either side is a mismatch. It returns an error describing
// the first mismatch.
func Verify(a *Matrix, dec *Decomposition, x []float64) error {
	s, err := NewSession(dec, SessionOptions{})
	if err != nil {
		return err
	}
	defer s.Close()
	y := make([]float64, a.Rows)
	if err := s.Multiply(x, y, ExecOptions{}); err != nil {
		return err
	}
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	for i := range want {
		finite := !math.IsNaN(y[i]) && !math.IsInf(y[i], 0) && !math.IsNaN(want[i]) && !math.IsInf(want[i], 0)
		if !finite || math.Abs(y[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("finegrain: y[%d] = %g, serial %g", i, y[i], want[i])
		}
	}
	if ctr := s.Counters(); ctr.TotalWords() != dec.Stats.TotalVolume {
		return fmt.Errorf("finegrain: simulator moved %d words, analyzer predicted %d",
			ctr.TotalWords(), dec.Stats.TotalVolume)
	}
	return nil
}

// Permutation is a row/column reordering of a matrix: original row i
// moves to position Row[i], original column j to Col[j]. Produced by
// Reorder, compiled by NewSession with CompileLocal, persisted by
// sparsepart as a sidecar .perm file.
type Permutation = reorder.Permutation

// Reorder decodes a decomposition into a cache-blocking permutation and
// applies it: rows are grouped by their y owner and columns by their x
// owner, so each simulated processor's rows — whose column footprints
// the partitioner made overlap — become one contiguous block with a
// compact x working set. It returns the permuted matrix and the
// permutation that produced it (NewSession with CompileLocal compiles
// the same permutation for MultiplyLocal). Use a decomposition from
// DecomposeLocality (or any model) with K chosen so one block's working
// set fits the target cache. Options is read only for Trace, which
// records a "reorder.decode" span.
func Reorder(dec *Decomposition, o Options) (*Matrix, *Permutation, error) {
	p, err := reorder.FromAssignmentTraced(dec.Assignment, o.Trace)
	if err != nil {
		return nil, nil, classify("Reorder", err)
	}
	b, err := p.Apply(dec.Assignment.A)
	if err != nil {
		return nil, nil, classify("Reorder", err)
	}
	return b, p, nil
}
