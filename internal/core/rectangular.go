package core

import (
	"fmt"

	"finegrain/internal/hypergraph"
	"finegrain/internal/sparse"
)

// The paper's Section 3 observes that the symmetric-partitioning
// requirement (and with it the consistency condition and dummy diagonal
// vertices) exists only because square-matrix iterative solvers reuse
// y as the next x. "In the absence of symmetric partitioning
// requirement, the proposed model already achieves the accurate
// representation of communication volume requirement without
// consistency condition." RectFineGrainModel implements that variant:
// it accepts rectangular matrices, adds no dummies, and decodes x_j and
// y_i owners independently — each placed inside its net's connectivity
// set, which Section 3 shows is exactly volume-optimal.

// RectFineGrainModel is the fine-grain hypergraph of an M×N (possibly
// rectangular) matrix without the consistency condition. Vertex k is
// the k-th stored nonzero in CSR order; net i ∈ [0, M) is row net m_i;
// net M+j is column net n_j.
type RectFineGrainModel struct {
	H *hypergraph.Hypergraph
	A *sparse.CSR
}

// BuildRectFineGrain constructs the non-symmetric fine-grain model of
// any matrix, square or rectangular.
func BuildRectFineGrain(a *sparse.CSR) (*RectFineGrainModel, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return nil, fmt.Errorf("core: empty matrix %dx%d", a.Rows, a.Cols)
	}
	return &RectFineGrainModel{H: fineGrainHypergraph(a, nil), A: a}, nil
}

// RowNet returns the net index of row net m_i.
func (rf *RectFineGrainModel) RowNet(i int) int { return i }

// ColNet returns the net index of column net n_j.
func (rf *RectFineGrainModel) ColNet(j int) int { return rf.A.Rows + j }

// Decode2D decodes a K-way partition into an Assignment. Vector owners
// are chosen independently per net: x_j goes to the connectivity-set
// part of column net n_j holding the most of the column's nonzeros
// (minimizing that column's send fan-out pressure), y_i likewise for
// row net m_i; empty nets default to part 0. Any choice inside the
// connectivity set yields the same total volume (Section 3); the
// most-loaded-part rule additionally spreads per-processor volume.
func (rf *RectFineGrainModel) Decode2D(p *hypergraph.Partition) (*Assignment, error) {
	if len(p.Parts) != rf.H.NumVertices() {
		return nil, fmt.Errorf("core: partition covers %d vertices, model has %d",
			len(p.Parts), rf.H.NumVertices())
	}
	a := rf.A
	asg := &Assignment{
		K:            p.K,
		A:            a,
		NonzeroOwner: append([]int(nil), p.Parts...),
		XOwner:       make([]int, a.Cols),
		YOwner:       make([]int, a.Rows),
	}
	counts := make([]int, p.K)
	majority := func(pins []int) int {
		if len(pins) == 0 {
			return 0
		}
		for _, v := range pins {
			counts[p.Parts[v]] = 0
		}
		best, bestC := p.Parts[pins[0]], 0
		for _, v := range pins {
			part := p.Parts[v]
			counts[part]++
			if counts[part] > bestC {
				best, bestC = part, counts[part]
			}
		}
		for _, v := range pins {
			counts[p.Parts[v]] = 0
		}
		return best
	}
	for j := 0; j < a.Cols; j++ {
		asg.XOwner[j] = majority(rf.H.Pins(rf.ColNet(j)))
	}
	for i := 0; i < a.Rows; i++ {
		asg.YOwner[i] = majority(rf.H.Pins(rf.RowNet(i)))
	}
	return asg, nil
}
