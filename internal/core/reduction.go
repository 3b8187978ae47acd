package core

import (
	"errors"
	"fmt"
	"slices"

	"finegrain/internal/hypergraph"
)

// The paper notes (Section 3) that parallel matrix-vector multiplication
// is one instance of a parallel reduction: x entries are reduction
// inputs, y entries are outputs, and A maps inputs to outputs. The
// fine-grain model therefore decomposes any reduction problem whose
// atomic tasks each consume some inputs and contribute to some outputs.
// When inputs or outputs are pre-assigned to processors, the model adds
// fixed "part vertices" pinned to the corresponding nets; the
// partitioner must keep them in their parts.

// Task is one atomic operation of a reduction problem: it reads the
// listed inputs and contributes partial results to the listed outputs.
type Task struct {
	Inputs  []int
	Outputs []int
	Weight  int // computational weight; 0 is treated as 1
}

// ReductionModel is the fine-grain hypergraph of a reduction problem.
// Vertex t < len(tasks) is task t. Nets [0, numOutputs) are fold nets
// (one per output); nets [numOutputs, numOutputs+numInputs) are expand
// nets (one per input). When pre-assignments are present, one extra
// zero-weight part vertex per referenced processor is appended and
// pinned to the nets of its pre-assigned inputs/outputs.
type ReductionModel struct {
	H          *hypergraph.Hypergraph
	NumTasks   int
	NumInputs  int
	NumOutputs int
	// Fixed is the fixed-part slice to pass to hgpart.PartitionFixed:
	// -1 for free vertices, the processor index for part vertices. Nil
	// when there are no pre-assignments.
	Fixed []int
	// partVertex[p] is the vertex index of processor p's part vertex,
	// or -1 if processor p has no pre-assigned elements.
	partVertex []int
}

// ReductionOptions carries optional pre-assignments. PreInputs[i] ≥ 0
// fixes input i to that processor; likewise PreOutputs. Use -1 (or a
// nil slice) for unconstrained elements.
type ReductionOptions struct {
	K          int
	PreInputs  []int
	PreOutputs []int
}

// BuildReduction constructs the fine-grain reduction hypergraph.
func BuildReduction(numInputs, numOutputs int, tasks []Task, opts ReductionOptions) (*ReductionModel, error) {
	if numInputs < 0 || numOutputs < 0 {
		return nil, errors.New("core: negative input/output count")
	}
	if len(tasks) == 0 {
		return nil, errors.New("core: reduction needs at least one task")
	}
	for t, task := range tasks {
		for _, in := range task.Inputs {
			if in < 0 || in >= numInputs {
				return nil, fmt.Errorf("core: task %d input %d out of [0,%d)", t, in, numInputs)
			}
		}
		for _, out := range task.Outputs {
			if out < 0 || out >= numOutputs {
				return nil, fmt.Errorf("core: task %d output %d out of [0,%d)", t, out, numOutputs)
			}
		}
	}
	if opts.PreInputs != nil && len(opts.PreInputs) != numInputs {
		return nil, fmt.Errorf("core: PreInputs length %d, want %d", len(opts.PreInputs), numInputs)
	}
	if opts.PreOutputs != nil && len(opts.PreOutputs) != numOutputs {
		return nil, fmt.Errorf("core: PreOutputs length %d, want %d", len(opts.PreOutputs), numOutputs)
	}

	// Processor p gets a part vertex, numbered after the tasks in
	// processor order, when an input or output is pre-assigned to it;
	// partVertex[p] is 1 for such a p until it is numbered.
	pre := slices.Concat(opts.PreInputs, opts.PreOutputs)
	maxProc := -1
	for _, p := range pre {
		if p < -1 {
			return nil, fmt.Errorf("core: pre-assignment %d invalid", p)
		}
		maxProc = max(maxProc, p)
	}
	if opts.K > 0 && maxProc >= opts.K {
		return nil, fmt.Errorf("core: pre-assignment to processor %d but K=%d", maxProc, opts.K)
	}
	partVertex := make([]int, maxProc+1)
	for _, p := range pre {
		if p >= 0 {
			partVertex[p] = 1
		}
	}
	numV := len(tasks)
	var fixed []int
	if maxProc >= 0 {
		fixed = make([]int, numV, numV+len(partVertex))
		for v := range fixed {
			fixed[v] = -1
		}
	}
	for p, used := range partVertex {
		partVertex[p] = -1
		if used == 1 {
			partVertex[p] = numV
			fixed = append(fixed, p)
			numV++
		}
	}
	vweight := make([]int, numV) // part vertices weigh 0
	for t, task := range tasks {
		vweight[t] = max(task.Weight, 1)
	}
	h := hypergraph.FromPins(vweight, hypergraph.Ones(numOutputs+numInputs), func(pin func(n, v int)) {
		for t, task := range tasks {
			for _, out := range task.Outputs {
				pin(out, t)
			}
			for _, in := range task.Inputs {
				pin(numOutputs+in, t)
			}
		}
		for in, p := range opts.PreInputs {
			if p >= 0 {
				pin(numOutputs+in, partVertex[p])
			}
		}
		for out, p := range opts.PreOutputs {
			if p >= 0 {
				pin(out, partVertex[p])
			}
		}
	})
	return &ReductionModel{
		H:          h,
		NumTasks:   len(tasks),
		NumInputs:  numInputs,
		NumOutputs: numOutputs,
		Fixed:      fixed,
		partVertex: partVertex,
	}, nil
}

// PartVertex returns the vertex index of processor p's part vertex, or
// -1 if p has none.
func (rm *ReductionModel) PartVertex(p int) int {
	if p < 0 || p >= len(rm.partVertex) {
		return -1
	}
	return rm.partVertex[p]
}

// InputNet returns the net index modeling the expand of input i.
func (rm *ReductionModel) InputNet(i int) int { return rm.NumOutputs + i }

// OutputNet returns the net index modeling the fold of output o.
func (rm *ReductionModel) OutputNet(o int) int { return o }

// ReductionDecomposition is a decoded reduction decomposition.
type ReductionDecomposition struct {
	K           int
	TaskOwner   []int
	InputOwner  []int // decoded owner of each input's expand source
	OutputOwner []int // decoded owner of each output's fold destination
}

// Decode converts a partition of the reduction hypergraph into task and
// input/output ownership. Free inputs/outputs are placed on a processor
// in their net's connectivity set (the first pin's part — any member is
// volume-optimal, as shown in Section 3); pre-assigned ones keep their
// processor.
func (rm *ReductionModel) Decode(p *hypergraph.Partition, opts ReductionOptions) (*ReductionDecomposition, error) {
	if len(p.Parts) != rm.H.NumVertices() {
		return nil, fmt.Errorf("core: partition covers %d vertices, model has %d",
			len(p.Parts), rm.H.NumVertices())
	}
	d := &ReductionDecomposition{
		K:           p.K,
		TaskOwner:   append([]int(nil), p.Parts[:rm.NumTasks]...),
		InputOwner:  make([]int, rm.NumInputs),
		OutputOwner: make([]int, rm.NumOutputs),
	}
	for i := 0; i < rm.NumInputs; i++ {
		if opts.PreInputs != nil && opts.PreInputs[i] >= 0 {
			d.InputOwner[i] = opts.PreInputs[i]
			continue
		}
		pins := rm.H.Pins(rm.InputNet(i))
		if len(pins) == 0 {
			d.InputOwner[i] = 0
			continue
		}
		d.InputOwner[i] = p.Parts[pins[0]]
	}
	for o := 0; o < rm.NumOutputs; o++ {
		if opts.PreOutputs != nil && opts.PreOutputs[o] >= 0 {
			d.OutputOwner[o] = opts.PreOutputs[o]
			continue
		}
		pins := rm.H.Pins(rm.OutputNet(o))
		if len(pins) == 0 {
			d.OutputOwner[o] = 0
			continue
		}
		d.OutputOwner[o] = p.Parts[pins[0]]
	}
	return d, nil
}

// Volume computes the exact communication volume of a decoded reduction:
// each input i is sent from its owner to every other processor running a
// task that reads i; each output o receives one partial word from every
// processor other than its owner that runs a task contributing to o.
func (rm *ReductionModel) Volume(tasks []Task, d *ReductionDecomposition) int {
	vol := 0
	seen := make([]int, d.K)
	for i := range seen {
		seen[i] = -1
	}
	epoch := 0
	// Expand volume per input.
	inputReaders := make([][]int, rm.NumInputs)
	outputWriters := make([][]int, rm.NumOutputs)
	for t, task := range tasks {
		for _, in := range task.Inputs {
			inputReaders[in] = append(inputReaders[in], d.TaskOwner[t])
		}
		for _, out := range task.Outputs {
			outputWriters[out] = append(outputWriters[out], d.TaskOwner[t])
		}
	}
	countDistinctOthers := func(owners []int, owner int) int {
		epoch++
		n := 0
		for _, p := range owners {
			if p != owner && seen[p] != epoch {
				seen[p] = epoch
				n++
			}
		}
		return n
	}
	for i := 0; i < rm.NumInputs; i++ {
		vol += countDistinctOthers(inputReaders[i], d.InputOwner[i])
	}
	for o := 0; o < rm.NumOutputs; o++ {
		vol += countDistinctOthers(outputWriters[o], d.OutputOwner[o])
	}
	return vol
}
