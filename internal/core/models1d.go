package core

import (
	"fmt"

	"finegrain/internal/graph"
	"finegrain/internal/hypergraph"
	"finegrain/internal/sparse"
)

// ColumnNetModel is the 1D rowwise hypergraph model of Çatalyürek &
// Aykanat (TPDS 1999), the stronger of the paper's two baselines:
// vertex i is row i (weight = nnz of row i), net n_j is column j with
// pins {rows i : a_ij ≠ 0} ∪ {j} (the diagonal pin keeps the model
// consistent so x_j/y_j can live with row j). Minimizing the
// connectivity−1 cutsize minimizes the expand volume exactly; a rowwise
// decomposition needs no folds.
type ColumnNetModel struct {
	H *hypergraph.Hypergraph
	A *sparse.CSR
}

// BuildColumnNet constructs the 1D column-net (rowwise) model of A.
func BuildColumnNet(a *sparse.CSR) (*ColumnNetModel, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	m := a.Rows
	b := hypergraph.NewBuilder(m, m)
	for i := 0; i < m; i++ {
		b.SetVertexWeight(i, a.RowNNZ(i)) // an empty row costs nothing to compute
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			b.AddPin(a.ColIdx[k], i)
		}
	}
	// Consistency pins: row j is always a pin of column net j, so the
	// decoded owner of x_j (= the part of row j) is in the net's
	// connectivity set.
	for j := 0; j < m; j++ {
		b.AddPin(j, j)
	}
	return &ColumnNetModel{H: b.Build(), A: a}, nil
}

// Decode1D decodes a K-way partition of the rows into an Assignment:
// every nonzero of row i goes to part[i], and x_i/y_i live with row i.
func (cn *ColumnNetModel) Decode1D(p *hypergraph.Partition) (*Assignment, error) {
	if len(p.Parts) != cn.A.Rows {
		return nil, fmt.Errorf("core: partition covers %d vertices, model has %d rows",
			len(p.Parts), cn.A.Rows)
	}
	return rowwiseAssignment(cn.A, p.K, p.Parts), nil
}

// RowNetModel is the 1D columnwise dual: vertex j is column j (weight =
// nnz of column j), net m_i is row i. Minimizing connectivity−1
// minimizes the fold volume exactly; a columnwise decomposition needs no
// expands.
type RowNetModel struct {
	H *hypergraph.Hypergraph
	A *sparse.CSR
}

// BuildRowNet constructs the 1D row-net (columnwise) model of A.
func BuildRowNet(a *sparse.CSR) (*RowNetModel, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	m := a.Rows
	b := hypergraph.NewBuilder(m, m)
	csc := a.ToCSC()
	for j := 0; j < m; j++ {
		b.SetVertexWeight(j, csc.ColNNZ(j))
		rows, _ := csc.Col(j)
		for _, i := range rows {
			b.AddPin(i, j)
		}
	}
	for i := 0; i < m; i++ {
		b.AddPin(i, i)
	}
	return &RowNetModel{H: b.Build(), A: a}, nil
}

// Decode1D decodes a K-way partition of the columns into an Assignment:
// every nonzero of column j goes to part[j], and x_j/y_j live with
// column j.
func (rn *RowNetModel) Decode1D(p *hypergraph.Partition) (*Assignment, error) {
	if len(p.Parts) != rn.A.Cols {
		return nil, fmt.Errorf("core: partition covers %d vertices, model has %d columns",
			len(p.Parts), rn.A.Cols)
	}
	asg := &Assignment{
		K:            p.K,
		A:            rn.A,
		NonzeroOwner: make([]int, rn.A.NNZ()),
		XOwner:       append([]int(nil), p.Parts...),
		YOwner:       append([]int(nil), p.Parts...),
	}
	for i := 0; i < rn.A.Rows; i++ {
		for k := rn.A.RowPtr[i]; k < rn.A.RowPtr[i+1]; k++ {
			asg.NonzeroOwner[k] = p.Parts[rn.A.ColIdx[k]]
		}
	}
	return asg, nil
}

// StandardGraphModel is the paper's weaker baseline: the standard graph
// model for 1D rowwise decomposition, partitioned with a MeTiS-style
// graph partitioner. Vertex i is row i with weight nnz(row i); edge
// {i, j} exists when a_ij ≠ 0 or a_ji ≠ 0 with cost 1 if only one of
// the two is stored and 2 if both (the number of words the edge would
// force if cut — an approximation, not the exact volume; measuring the
// true volume of its decoded decompositions is precisely how the paper
// exposes the model's flaw).
type StandardGraphModel struct {
	G *graph.Graph
	A *sparse.CSR
}

// BuildStandardGraph constructs the standard graph model of A.
func BuildStandardGraph(a *sparse.CSR) (*StandardGraphModel, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	m := a.Rows
	b := graph.NewBuilder(m)
	for i := 0; i < m; i++ {
		w := a.RowNNZ(i)
		b.SetVertexWeight(i, w)
	}
	t := a.Transpose()
	for i := 0; i < m; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j <= i {
				continue // handle each unordered pair once, from the lower index
			}
			cost := 1
			if t.Has(i, j) { // a_ji also stored
				cost = 2
			}
			b.AddEdge(i, j, cost)
		}
		// Edges present only in the transpose direction (a_ji ≠ 0,
		// a_ij = 0) for j > i.
		tcols, _ := t.Row(i)
		for _, j := range tcols {
			if j <= i || a.Has(i, j) {
				continue
			}
			b.AddEdge(i, j, 1)
		}
	}
	return &StandardGraphModel{G: b.Build(), A: a}, nil
}

// Decode1D decodes a K-way partition of the rows into an Assignment
// (identical decoding to the column-net model: rowwise ownership).
func (sg *StandardGraphModel) Decode1D(p *graph.Partition) (*Assignment, error) {
	if len(p.Parts) != sg.A.Rows {
		return nil, fmt.Errorf("core: partition covers %d vertices, model has %d rows",
			len(p.Parts), sg.A.Rows)
	}
	return rowwiseAssignment(sg.A, p.K, p.Parts), nil
}

func rowwiseAssignment(a *sparse.CSR, k int, rowPart []int) *Assignment {
	asg := &Assignment{
		K:            k,
		A:            a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       append([]int(nil), rowPart...),
		YOwner:       append([]int(nil), rowPart...),
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			asg.NonzeroOwner[p] = rowPart[i]
		}
	}
	return asg
}
