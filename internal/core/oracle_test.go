package core

import (
	"slices"
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// randomPattern returns a random rows×cols pattern. Few entries leave
// empty rows and columns; fullDiag adds every diagonal entry of the
// leading square block, otherwise the diagonal is whatever the draw
// hit.
func randomPattern(r *rng.RNG, rows, cols int, fullDiag bool) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols)
	for e := r.Intn(3 * (rows + cols)); e > 0; e-- {
		coo.Add(r.Intn(rows), r.Intn(cols), 1) // ToCSR merges repeats
	}
	if fullDiag {
		for i := 0; i < min(rows, cols); i++ {
			coo.Add(i, i, 1)
		}
	}
	return coo.ToCSR()
}

// TestColumnNetMatchesBuilder checks BuildColumnNet against the model
// built pin by pin through Builder, on square matrices with empty rows
// and columns and with a full or a partial diagonal (the consistency
// pin then repeats or adds a pin).
func TestColumnNetMatchesBuilder(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(50)
		a := randomPattern(r, n, n, trial%2 == 0)
		cn, err := BuildColumnNet(a)
		if err != nil {
			t.Fatal(err)
		}
		b := hypergraph.NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b.SetVertexWeight(i, a.RowNNZ(i))
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				b.AddPin(a.ColIdx[k], i)
			}
			b.AddPin(i, i)
		}
		if err := hypergraph.Diff(cn.H, b.Build()); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
	}
}

// TestRectFineGrainMatchesBuilder checks BuildRectFineGrain against the
// Builder construction on square and rectangular matrices with empty
// rows and columns.
func TestRectFineGrainMatchesBuilder(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 40; trial++ {
		rows, cols := 1+r.Intn(40), 1+r.Intn(40)
		if trial%4 == 0 {
			cols = rows
		}
		a := randomPattern(r, rows, cols, trial%8 == 0)
		rf, err := BuildRectFineGrain(a)
		if err != nil {
			t.Fatal(err)
		}
		b := hypergraph.NewBuilder(a.NNZ(), rows+cols)
		for i := 0; i < rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				b.AddPin(i, k)
				b.AddPin(rows+a.ColIdx[k], k)
			}
		}
		if err := hypergraph.Diff(rf.H, b.Build()); err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, rows, cols, err)
		}
	}
}

// TestReductionMatchesBuilder checks BuildReduction against the Builder
// construction on random tasks that repeat inputs and outputs, with and
// without pre-assigned inputs and outputs (part vertices).
func TestReductionMatchesBuilder(t *testing.T) {
	r := rng.New(53)
	for trial := 0; trial < 40; trial++ {
		numIn, numOut := r.Intn(12), r.Intn(12)
		tasks := make([]Task, 1+r.Intn(20))
		for i := range tasks {
			task := &tasks[i]
			if numIn > 0 {
				for d := r.Intn(5); d > 0; d-- {
					task.Inputs = append(task.Inputs, r.Intn(min(numIn, 3)))
				}
			}
			if numOut > 0 {
				for d := r.Intn(5); d > 0; d-- {
					task.Outputs = append(task.Outputs, r.Intn(numOut))
				}
			}
			task.Weight = r.Intn(4) - 1
		}
		opts := ReductionOptions{K: 4}
		if trial%2 == 1 {
			opts.PreInputs = make([]int, numIn)
			opts.PreOutputs = make([]int, numOut)
			for i := range opts.PreInputs {
				opts.PreInputs[i] = r.Intn(5) - 1
			}
			for o := range opts.PreOutputs {
				opts.PreOutputs[o] = r.Intn(5) - 1
			}
		}
		rm, err := BuildReduction(numIn, numOut, tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Processor p's part vertex follows the tasks, in processor
		// order, when p has a pre-assigned input or output.
		partVertex := make([]int, opts.K)
		numV := len(tasks)
		for p := range partVertex {
			partVertex[p] = -1
			if slices.Contains(opts.PreInputs, p) || slices.Contains(opts.PreOutputs, p) {
				partVertex[p] = numV
				numV++
			}
		}
		b := hypergraph.NewBuilder(numV, numOut+numIn)
		for v, task := range tasks {
			b.SetVertexWeight(v, max(task.Weight, 1))
			for _, out := range task.Outputs {
				b.AddPin(out, v)
			}
			for _, in := range task.Inputs {
				b.AddPin(numOut+in, v)
			}
		}
		for v := len(tasks); v < numV; v++ {
			b.SetVertexWeight(v, 0)
		}
		for in, p := range opts.PreInputs {
			if p >= 0 {
				b.AddPin(numOut+in, partVertex[p])
			}
		}
		for out, p := range opts.PreOutputs {
			if p >= 0 {
				b.AddPin(out, partVertex[p])
			}
		}
		if err := hypergraph.Diff(rm.H, b.Build()); err != nil {
			t.Fatalf("trial %d (in=%d out=%d tasks=%d): %v", trial, numIn, numOut, len(tasks), err)
		}
	}
}
