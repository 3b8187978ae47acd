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

// BuildStandardGraph constructs the standard graph model of A. Vertex
// i's neighbours are the sorted merge of row i of A and column i of A
// (row i of Aᵀ) without i itself, and an edge's cost is how many of the
// two lists hold the neighbour. The CSR arrays are written directly:
// one pass counts each merged row, the next fills it.
func BuildStandardGraph(a *sparse.CSR) (*StandardGraphModel, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows, a.Cols)
	}
	m := a.Rows
	t := a.ToCSC()
	adjPtr := make([]int, m+1)
	vw := make([]int, m)
	for i := 0; i < m; i++ {
		row, _ := a.Row(i)
		col, _ := t.Col(i)
		adjPtr[i+1] = adjPtr[i] + mergeAdj(row, col, i, nil, nil)
		vw[i] = len(row)
	}
	adjTo := make([]int, adjPtr[m])
	adjW := make([]int, adjPtr[m])
	for i := 0; i < m; i++ {
		row, _ := a.Row(i)
		col, _ := t.Col(i)
		lo, hi := adjPtr[i], adjPtr[i+1]
		mergeAdj(row, col, i, adjTo[lo:hi], adjW[lo:hi])
	}
	return &StandardGraphModel{G: graph.FromCSR(adjPtr, adjTo, adjW, vw), A: a}, nil
}

// mergeAdj merges two sorted unique index lists, skipping self, and
// returns the merged length. Each merged index j gets weight 1 or 2,
// the number of lists holding it. When to is nil it only counts.
func mergeAdj(x, y []int, self int, to, w []int) int {
	n := 0
	emit := func(j, c int) {
		if j == self {
			return
		}
		if to != nil {
			to[n], w[n] = j, c
		}
		n++
	}
	i, k := 0, 0
	for i < len(x) && k < len(y) {
		switch {
		case x[i] < y[k]:
			emit(x[i], 1)
			i++
		case x[i] > y[k]:
			emit(y[k], 1)
			k++
		default:
			emit(x[i], 2)
			i++
			k++
		}
	}
	for ; i < len(x); i++ {
		emit(x[i], 1)
	}
	for ; k < len(y); k++ {
		emit(y[k], 1)
	}
	return n
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
