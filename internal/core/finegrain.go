// Package core implements the paper's primary contribution — the
// fine-grain hypergraph model for 2D decomposition of sparse matrices —
// together with the two baseline models it is evaluated against (the 1D
// column-net hypergraph model and the 1D standard graph model), and
// the decoding of vertex partitions into executable decompositions
// (nonzero ownership plus conformal x/y vector ownership).
//
// Model summary (Section 3 of the paper): an M×M matrix A with Z
// nonzeros becomes a hypergraph with Z vertices (one per nonzero, unit
// weight: the scalar multiply y_i += a_ij·x_j) and 2M nets — row net m_i
// holds the vertices of row i (models the fold of y_i), column net n_j
// holds the vertices of column j (models the expand of x_j). The
// consistency condition "v_jj ∈ pins[m_j] ∩ pins[n_j]" is enforced by
// adding a zero-weight dummy vertex wherever the diagonal is
// structurally zero; it guarantees the decoded x_j/y_j owner
// part[v_jj] lies in both connectivity sets, making the connectivity−1
// cutsize exactly the communication volume while keeping the vector
// partition symmetric.
package core

import (
	"errors"
	"fmt"
	"slices"

	"finegrain/internal/hypergraph"
	"finegrain/internal/sparse"
)

// ErrNotSquare reports a model that requires a square matrix.
var ErrNotSquare = errors.New("core: matrix must be square")

// FineGrainModel is the 2D fine-grain hypergraph of a square sparse
// matrix. Vertex numbering: vertex k < NNZ is the k-th stored nonzero in
// CSR order; vertices NNZ..NNZ+len(DummyDiag)-1 are the zero-weight
// dummy diagonal vertices, in DummyDiag order. Net numbering: net
// i ∈ [0, M) is row net m_i; net M+j is column net n_j.
type FineGrainModel struct {
	H *hypergraph.Hypergraph
	A *sparse.CSR
	// DummyDiag lists the diagonal indices j with a_jj structurally
	// zero, for which a dummy vertex v_jj was added.
	DummyDiag []int
	// diagVertex[j] is the vertex index of v_jj (real or dummy).
	diagVertex []int
}

// BuildFineGrain constructs the fine-grain hypergraph model of A.
// A must be square with no empty rows or columns (every net needs a pin;
// use sparse.EnsureNonemptyRowsCols first if needed — empty rows/columns
// would still get a dummy diagonal pin, so they are accepted too).
func BuildFineGrain(a *sparse.CSR) (*FineGrainModel, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	// v_jj is a_jj's vertex where the diagonal is stored; elsewhere a
	// dummy, numbered after the nonzeros in diagonal order.
	m, z := a.Rows, a.NNZ()
	diagVertex := make([]int, m)
	var dummies []int
	for j := 0; j < m; j++ {
		if k, ok := a.Find(j, j); ok {
			diagVertex[j] = k
		} else {
			diagVertex[j] = z + len(dummies)
			dummies = append(dummies, j)
		}
	}
	h := fineGrainHypergraph(a, dummies)
	return &FineGrainModel{H: h, A: a, DummyDiag: dummies, diagVertex: diagVertex}, nil
}

// fineGrainHypergraph is the fine-grain hypergraph of a with the given
// dummy diagonals, shared by the square and the rectangular model.
// Vertex k < Z is nonzero k in CSR order, weight 1 (one scalar
// multiplication), a pin of row net m_i and column net n_j; dummy
// diagonal vertex Z+d has weight 0 and is a pin of both nets of index
// dummies[d].
func fineGrainHypergraph(a *sparse.CSR, dummies []int) *hypergraph.Hypergraph {
	z := a.NNZ()
	vweight := hypergraph.Ones(z + len(dummies))
	clear(vweight[z:])
	m := a.Rows
	return hypergraph.FromPins(vweight, hypergraph.Ones(m+a.Cols), func(pin func(n, v int)) {
		for i := 0; i < m; i++ {
			lo := a.RowPtr[i]
			for k, j := range a.ColIdx[lo:a.RowPtr[i+1]] {
				pin(i, lo+k)
				pin(m+j, lo+k)
			}
		}
		for d, j := range dummies {
			pin(j, z+d)
			pin(m+j, z+d)
		}
	})
}

// DiagVertex returns the vertex index of v_jj.
func (fg *FineGrainModel) DiagVertex(j int) int { return fg.diagVertex[j] }

// RowNet returns the net index of row net m_i.
func (fg *FineGrainModel) RowNet(i int) int { return i }

// ColNet returns the net index of column net n_j.
func (fg *FineGrainModel) ColNet(j int) int { return fg.A.Rows + j }

// VertexCoord returns the (row, col) of the nonzero or dummy diagonal a
// vertex represents.
func (fg *FineGrainModel) VertexCoord(v int) sparse.Coord {
	z := fg.A.NNZ()
	if v >= z {
		j := fg.DummyDiag[v-z]
		return sparse.Coord{Row: j, Col: j}
	}
	// Binary search the row containing position v.
	lo, hi := 0, fg.A.Rows
	for lo < hi {
		mid := (lo + hi) / 2
		if fg.A.RowPtr[mid+1] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return sparse.Coord{Row: lo, Col: fg.A.ColIdx[v]}
}

// CheckConsistency verifies the consistency condition of Section 3:
// v_jj ∈ pins[m_j] and v_jj ∈ pins[n_j] for every j. BuildFineGrain
// always establishes it; this is exposed for tests and for hypergraphs
// constructed by other means.
func (fg *FineGrainModel) CheckConsistency() error {
	m := fg.A.Rows
	for j := 0; j < m; j++ {
		v := fg.diagVertex[j]
		if v < 0 {
			return fmt.Errorf("core: no diagonal vertex for index %d", j)
		}
		if !slices.Contains(fg.H.Pins(fg.RowNet(j)), v) {
			return fmt.Errorf("core: v_%d,%d missing from row net m_%d", j, j, j)
		}
		if !slices.Contains(fg.H.Pins(fg.ColNet(j)), v) {
			return fmt.Errorf("core: v_%d,%d missing from column net n_%d", j, j, j)
		}
	}
	return nil
}

// Decode2D decodes a K-way partition of the fine-grain hypergraph into
// an executable decomposition: each stored nonzero goes to the part of
// its vertex, and x_j and y_j both go to part[v_jj] — the assignment the
// paper proves safe (map[n_j] = map[m_j] = part[v_jj]) and
// volume-exact.
func (fg *FineGrainModel) Decode2D(p *hypergraph.Partition) (*Assignment, error) {
	if len(p.Parts) != fg.H.NumVertices() {
		return nil, fmt.Errorf("core: partition covers %d vertices, model has %d",
			len(p.Parts), fg.H.NumVertices())
	}
	m := fg.A.Rows
	asg := &Assignment{
		K:            p.K,
		A:            fg.A,
		NonzeroOwner: append([]int(nil), p.Parts[:fg.A.NNZ()]...),
		XOwner:       make([]int, m),
		YOwner:       make([]int, m),
	}
	for j := 0; j < m; j++ {
		owner := p.Parts[fg.diagVertex[j]]
		asg.XOwner[j] = owner
		asg.YOwner[j] = owner
	}
	return asg, nil
}

// Assignment is a decoded decomposition of a sparse matrix for parallel
// y = Ax on K processors: the owner of every stored nonzero plus the
// conformal owners of the x and y vector entries. All downstream
// analysis (internal/comm) and execution (internal/spmv) consume this.
type Assignment struct {
	K            int
	A            *sparse.CSR
	NonzeroOwner []int // per stored nonzero, CSR order
	XOwner       []int // per column
	YOwner       []int // per row
}

// Validate checks ranges and lengths.
func (asg *Assignment) Validate() error {
	if asg.K <= 0 {
		return errors.New("core: assignment needs K >= 1")
	}
	if len(asg.NonzeroOwner) != asg.A.NNZ() {
		return fmt.Errorf("core: %d nonzero owners for %d nonzeros", len(asg.NonzeroOwner), asg.A.NNZ())
	}
	if len(asg.XOwner) != asg.A.Cols || len(asg.YOwner) != asg.A.Rows {
		return fmt.Errorf("core: vector owner lengths (%d,%d) for %dx%d matrix",
			len(asg.XOwner), len(asg.YOwner), asg.A.Rows, asg.A.Cols)
	}
	for _, o := range asg.NonzeroOwner {
		if o < 0 || o >= asg.K {
			return fmt.Errorf("core: nonzero owner %d out of [0,%d)", o, asg.K)
		}
	}
	for _, o := range asg.XOwner {
		if o < 0 || o >= asg.K {
			return fmt.Errorf("core: x owner %d out of [0,%d)", o, asg.K)
		}
	}
	for _, o := range asg.YOwner {
		if o < 0 || o >= asg.K {
			return fmt.Errorf("core: y owner %d out of [0,%d)", o, asg.K)
		}
	}
	return nil
}

// Symmetric reports whether XOwner and YOwner agree everywhere (the
// paper's symmetric-partitioning requirement for square matrices).
func (asg *Assignment) Symmetric() bool {
	if len(asg.XOwner) != len(asg.YOwner) {
		return false
	}
	for i := range asg.XOwner {
		if asg.XOwner[i] != asg.YOwner[i] {
			return false
		}
	}
	return true
}

// Loads returns the number of stored nonzeros (scalar multiplies) per
// processor.
func (asg *Assignment) Loads() []int {
	loads := make([]int, asg.K)
	for _, o := range asg.NonzeroOwner {
		loads[o]++
	}
	return loads
}

// LoadImbalance returns 100·(W_max − W_avg)/W_avg over the per-processor
// multiply counts.
func (asg *Assignment) LoadImbalance() float64 {
	loads := asg.Loads()
	max, total := 0, 0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(asg.K)
	return 100 * (float64(max) - avg) / avg
}
