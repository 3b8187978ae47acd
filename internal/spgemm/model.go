package spgemm

import (
	"fmt"

	"finegrain/internal/hypergraph"
	"finegrain/internal/sparse"
)

// FineGrainModel is the elementwise SpGEMM hypergraph of Ballard et
// al.: one unit-weight vertex per multiplication task (i, k, j), one
// net per data element that at least one task touches — a_ik's net
// holds the tasks multiplying it, b_kj's likewise, c_ij's holds the
// tasks contributing to it. Net layout: A nets first, then B nets,
// then one net per structural nonzero of C; netOfA/netOfB map CSR
// positions to net indices (−1 for elements no task uses).
type FineGrainModel struct {
	H *hypergraph.Hypergraph
	// A and B are the operands; C is the structural product with
	// serially computed values (Multiply's result).
	A, B, C *sparse.CSR

	numTasks       int
	netOfA, netOfB []int
	cNetBase       int // net index of C position 0
	aNets, bNets   int
}

// BuildFineGrain constructs the fine-grain SpGEMM model of C = A·B.
func BuildFineGrain(a, b *sparse.CSR) (*FineGrainModel, error) {
	c, err := Multiply(a, b)
	if err != nil {
		return nil, err
	}
	numTasks, _ := NumTasks(a, b)
	if numTasks == 0 {
		return nil, ErrEmptyProduct
	}
	// A element (i,k) feeds tasks iff row k of B is nonempty; B element
	// (k,j) iff column k of A is nonempty.
	aColCount := make([]int, a.Cols)
	for _, k := range a.ColIdx {
		aColCount[k]++
	}
	netOfA := make([]int, a.NNZ())
	nets := 0
	for p := 0; p < a.NNZ(); p++ {
		if b.RowNNZ(a.ColIdx[p]) > 0 {
			netOfA[p] = nets
			nets++
		} else {
			netOfA[p] = -1
		}
	}
	aNets := nets
	netOfB := make([]int, b.NNZ())
	for k := 0; k < b.Rows; k++ {
		for p := b.RowPtr[k]; p < b.RowPtr[k+1]; p++ {
			if aColCount[k] > 0 {
				netOfB[p] = nets
				nets++
			} else {
				netOfB[p] = -1
			}
		}
	}
	bNets := nets - aNets
	cNetBase := nets
	nets += c.NNZ()

	h := hypergraph.FromPins(hypergraph.Ones(numTasks), hypergraph.Ones(nets), func(pin func(n, v int)) {
		forEachTask(a, b, c, func(t, aPos, bPos, cPos int) {
			pin(netOfA[aPos], t)
			pin(netOfB[bPos], t)
			pin(cNetBase+cPos, t)
		})
	})
	return &FineGrainModel{
		H: h, A: a, B: b, C: c,
		numTasks: numTasks, netOfA: netOfA, netOfB: netOfB,
		cNetBase: cNetBase, aNets: aNets, bNets: bNets,
	}, nil
}

// NumTasks returns the model's vertex count.
func (m *FineGrainModel) NumTasks() int { return m.numTasks }

// Decode decodes a K-way task partition into an executable SpGEMM
// assignment: each task runs on its vertex's part, and every data
// element lives with the part of its first task in canonical order —
// a pin of the element's net, which is what makes connectivity−1 the
// exact volume. Elements no task touches stay on part 0 and move
// nothing.
func (m *FineGrainModel) Decode(p *hypergraph.Partition) (*Assignment, error) {
	if len(p.Parts) != m.numTasks {
		return nil, fmt.Errorf("spgemm: partition covers %d vertices, model has %d tasks",
			len(p.Parts), m.numTasks)
	}
	asg := newAssignment(p.K, m.A, m.B, m.C)
	asg.TaskOwner = append([]int(nil), p.Parts...)
	fillA := makeFirstSeen(asg.AOwner)
	fillB := makeFirstSeen(asg.BOwner)
	fillC := makeFirstSeen(asg.COwner)
	forEachTask(m.A, m.B, m.C, func(t, aPos, bPos, cPos int) {
		fillA(aPos, p.Parts[t])
		fillB(bPos, p.Parts[t])
		fillC(cPos, p.Parts[t])
	})
	return asg, nil
}

// Predict derives the per-phase communication volume from net
// connectivities; its total equals p.CutsizeConnectivity(m.H).
func (m *FineGrainModel) Predict(p *hypergraph.Partition) Prediction {
	var pr Prediction
	for n := 0; n < m.aNets; n++ {
		pr.ExpandAWords += p.Connectivity(m.H, n) - 1
	}
	for n := m.aNets; n < m.aNets+m.bNets; n++ {
		pr.ExpandBWords += p.Connectivity(m.H, n) - 1
	}
	for n := m.cNetBase; n < m.H.NumNets(); n++ {
		pr.FoldWords += p.Connectivity(m.H, n) - 1
	}
	return pr
}

// makeFirstSeen returns a setter that writes owner[i] only on the
// first call for each index (owners default to 0 for untouched
// elements).
func makeFirstSeen(owner []int) func(i, part int) {
	seen := make([]bool, len(owner))
	return func(i, part int) {
		if !seen[i] {
			seen[i] = true
			owner[i] = part
		}
	}
}

// RowwiseModel is the 1D Gustavson SpGEMM model: row i of C (and of
// A) is one vertex weighted by its flops; net k is row k of B with
// cost nnz(B_k*), pinned by every row i with a_ik ≠ 0 plus the
// consistency pin k (row k of B lives with row k of C). Only B moves:
// a cut net sends its whole B row to each remote part, so the weighted
// connectivity−1 cutsize is the exact word count, and there are no
// folds — each C row is computed entirely by its owner.
type RowwiseModel struct {
	H       *hypergraph.Hypergraph
	A, B, C *sparse.CSR
}

// BuildRowwise constructs the 1D rowwise SpGEMM model of C = A·B. The
// consistency pin requires conformal row spaces, so A must be square.
func BuildRowwise(a, b *sparse.CSR) (*RowwiseModel, error) {
	c, err := Multiply(a, b)
	if err != nil {
		return nil, err
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spgemm: rowwise model needs square A, got %dx%d", a.Rows, a.Cols)
	}
	numTasks, _ := NumTasks(a, b)
	if numTasks == 0 {
		return nil, ErrEmptyProduct
	}
	vweight := make([]int, a.Rows)
	for i := range vweight {
		for pa := a.RowPtr[i]; pa < a.RowPtr[i+1]; pa++ {
			vweight[i] += b.RowNNZ(a.ColIdx[pa])
		}
	}
	netCost := make([]int, b.Rows)
	for k := range netCost {
		netCost[k] = b.RowNNZ(k)
	}
	h := hypergraph.FromPins(vweight, netCost, func(pin func(n, v int)) {
		for i := 0; i < a.Rows; i++ {
			for pa := a.RowPtr[i]; pa < a.RowPtr[i+1]; pa++ {
				pin(a.ColIdx[pa], i)
			}
		}
		for k := 0; k < b.Rows; k++ {
			pin(k, k)
		}
	})
	return &RowwiseModel{H: h, A: a, B: b, C: c}, nil
}

// Decode decodes a K-way row partition: all tasks of row i, its A and
// C rows included, run on part[i]; row k of B lives on part[k].
func (m *RowwiseModel) Decode(p *hypergraph.Partition) (*Assignment, error) {
	if len(p.Parts) != m.A.Rows {
		return nil, fmt.Errorf("spgemm: partition covers %d vertices, model has %d rows",
			len(p.Parts), m.A.Rows)
	}
	asg := newAssignment(p.K, m.A, m.B, m.C)
	t := 0
	for i := 0; i < m.A.Rows; i++ {
		part := p.Parts[i]
		for pa := m.A.RowPtr[i]; pa < m.A.RowPtr[i+1]; pa++ {
			asg.AOwner[pa] = part
			t += m.B.RowNNZ(m.A.ColIdx[pa])
		}
		for pc := m.C.RowPtr[i]; pc < m.C.RowPtr[i+1]; pc++ {
			asg.COwner[pc] = part
		}
	}
	asg.TaskOwner = make([]int, t)
	t = 0
	for i := 0; i < m.A.Rows; i++ {
		part := p.Parts[i]
		for pa := m.A.RowPtr[i]; pa < m.A.RowPtr[i+1]; pa++ {
			for n := m.B.RowNNZ(m.A.ColIdx[pa]); n > 0; n-- {
				asg.TaskOwner[t] = part
				t++
			}
		}
	}
	for k := 0; k < m.B.Rows; k++ {
		part := p.Parts[k]
		for pb := m.B.RowPtr[k]; pb < m.B.RowPtr[k+1]; pb++ {
			asg.BOwner[pb] = part
		}
	}
	return asg, nil
}

// Predict derives the communication volume from the weighted net
// connectivities; only the B expand phase is nonzero, and the total
// equals p.CutsizeConnectivity(m.H).
func (m *RowwiseModel) Predict(p *hypergraph.Partition) Prediction {
	var pr Prediction
	for k := 0; k < m.B.Rows; k++ {
		if l := p.Connectivity(m.H, k); l > 1 {
			pr.ExpandBWords += m.B.RowNNZ(k) * (l - 1)
		}
	}
	return pr
}
