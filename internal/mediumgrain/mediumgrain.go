// Package mediumgrain implements the medium-grain hypergraph model for
// 2D decomposition of sparse matrices (Pelt & Bisseling, "A
// medium-grain method for fast 2D bipartitioning of sparse matrices",
// IPDPS 2014) — the midpoint between the 1D models (one vertex per
// row) and the paper's fine-grain model (one vertex per nonzero).
//
// Each nonzero a_ij is first assigned to either its row group R_i or
// its column group C_j, choosing the direction with fewer nonzeros
// (ties go to the row group) so every group stays small. The combined
// hypergraph then has one vertex per row group and one per column
// group — m+n vertices instead of the fine-grain model's nnz — with
// vertex weights equal to the number of nonzeros the group received:
//
//   - Row net m_i (net i) holds r_i plus every c_j with a_ij assigned
//     to C_j: it models the fold of y_i, because those column groups
//     are exactly the foreign owners of row i's nonzeros.
//   - Column net n_j (net m+j) holds c_j plus every r_i with a_ij
//     assigned to R_i: it models the expand of x_j symmetrically.
//
// Decoding maps each nonzero to the part of the group it was assigned
// to, y_i to part(r_i) and x_j to part(c_j). Because every pin of a
// net either owns a nonzero of the net's row/column or is the vector
// owner itself, the connectivity−1 cutsize equals the communication
// volume exactly — the same exactness the fine-grain model enjoys, at
// a fraction of the partitioning cost.
package mediumgrain

import (
	"fmt"

	"finegrain/internal/core"
	"finegrain/internal/hypergraph"
	"finegrain/internal/sparse"
)

// Model is the medium-grain combined hypergraph of a sparse matrix.
// Vertex numbering: vertex i < Rows is row group r_i; vertex Rows+j is
// column group c_j. Net numbering: net i < Rows is row net m_i; net
// Rows+j is column net n_j.
type Model struct {
	H *hypergraph.Hypergraph
	A *sparse.CSR
	// toRow[k] reports whether the k-th stored nonzero (CSR order) was
	// assigned to its row group (otherwise its column group).
	toRow []bool
}

// Build constructs the medium-grain model of a. The matrix must be
// square to keep the facade's decomposition contract (conformal x/y
// spaces); the split heuristic itself never needs squareness.
func Build(a *sparse.CSR) (*Model, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", core.ErrNotSquare, a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	colCount := make([]int, n)
	for _, j := range a.ColIdx {
		colCount[j]++
	}

	// Split pass: each nonzero joins the direction with fewer nonzeros
	// (its row group on ties), and the group weights accumulate in
	// vweight[i] (r_i) and vweight[m+j] (c_j).
	toRow := make([]bool, a.NNZ())
	vweight := make([]int, m+n)
	for i := 0; i < m; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if colCount[j] < a.RowNNZ(i) {
				vweight[m+j]++
			} else {
				toRow[k] = true
				vweight[i]++
			}
		}
	}

	h := hypergraph.FromPins(vweight, hypergraph.Ones(m+n), func(pin func(n, v int)) {
		// Consistency pins: the group vertex itself is always in its
		// net, so the decoded vector owner lies in the net's
		// connectivity set — the condition that makes connectivity−1
		// the exact volume.
		for v := 0; v < m+n; v++ {
			pin(v, v) // r_i ∈ m_i, c_j ∈ n_j
		}
		for i := 0; i < m; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if toRow[k] {
					pin(m+j, i) // r_i joins column net n_j
				} else {
					pin(i, m+j) // c_j joins row net m_i
				}
			}
		}
	})
	return &Model{H: h, A: a, toRow: toRow}, nil
}

// RowVertex returns the vertex index of row group r_i.
func (mg *Model) RowVertex(i int) int { return i }

// ColVertex returns the vertex index of column group c_j.
func (mg *Model) ColVertex(j int) int { return mg.A.Rows + j }

// InRowGroup reports whether the k-th stored nonzero was assigned to
// its row group by the split heuristic.
func (mg *Model) InRowGroup(k int) bool { return mg.toRow[k] }

// Decode decodes a K-way partition of the group vertices into an
// executable decomposition: each nonzero goes to the part of the group
// it joined, y_i to part(r_i), x_j to part(c_j). The resulting volume
// equals the partition's connectivity−1 cutsize exactly.
func (mg *Model) Decode(p *hypergraph.Partition) (*core.Assignment, error) {
	if len(p.Parts) != mg.H.NumVertices() {
		return nil, fmt.Errorf("mediumgrain: partition covers %d vertices, model has %d",
			len(p.Parts), mg.H.NumVertices())
	}
	a := mg.A
	m := a.Rows
	asg := &core.Assignment{
		K:            p.K,
		A:            a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, a.Cols),
		YOwner:       make([]int, a.Rows),
	}
	for i := 0; i < m; i++ {
		asg.YOwner[i] = p.Parts[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if mg.toRow[k] {
				asg.NonzeroOwner[k] = p.Parts[i]
			} else {
				asg.NonzeroOwner[k] = p.Parts[m+a.ColIdx[k]]
			}
		}
	}
	for j := 0; j < a.Cols; j++ {
		asg.XOwner[j] = p.Parts[m+j]
	}
	return asg, nil
}
