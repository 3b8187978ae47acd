package spgemm

import (
	"fmt"

	"finegrain/internal/comm"
	"finegrain/internal/sparse"
)

// Assignment is a decoded SpGEMM decomposition: which processor runs
// each multiplication task (canonical Gustavson order) and which owns
// each stored element of A, B and C. Models guarantee every element's
// owner is one of the parts whose tasks touch it, which is what makes
// the cutsize prediction exact; Measure and Execute only assume the
// owners are valid part indices.
type Assignment struct {
	K       int
	A, B, C *sparse.CSR
	// TaskOwner[t] is the part executing task t; owners are per CSR
	// position of the respective matrix.
	TaskOwner []int
	AOwner    []int
	BOwner    []int
	COwner    []int
}

func newAssignment(k int, a, b, c *sparse.CSR) *Assignment {
	return &Assignment{
		K: k, A: a, B: b, C: c,
		AOwner: make([]int, a.NNZ()),
		BOwner: make([]int, b.NNZ()),
		COwner: make([]int, c.NNZ()),
	}
}

// Validate checks structural consistency: conforming shapes, owner
// arrays sized to their matrices, and every owner in [0, K).
func (asg *Assignment) Validate() error {
	if asg.K < 1 {
		return fmt.Errorf("spgemm: K = %d, want >= 1", asg.K)
	}
	if asg.A == nil || asg.B == nil || asg.C == nil {
		return fmt.Errorf("spgemm: assignment missing a matrix")
	}
	if asg.A.Cols != asg.B.Rows || asg.C.Rows != asg.A.Rows || asg.C.Cols != asg.B.Cols {
		return fmt.Errorf("%w: %dx%d times %dx%d into %dx%d", ErrShape,
			asg.A.Rows, asg.A.Cols, asg.B.Rows, asg.B.Cols, asg.C.Rows, asg.C.Cols)
	}
	tasks, err := NumTasks(asg.A, asg.B)
	if err != nil {
		return err
	}
	if len(asg.TaskOwner) != tasks {
		return fmt.Errorf("spgemm: %d task owners, want %d", len(asg.TaskOwner), tasks)
	}
	for name, pair := range map[string][2]int{
		"A": {len(asg.AOwner), asg.A.NNZ()},
		"B": {len(asg.BOwner), asg.B.NNZ()},
		"C": {len(asg.COwner), asg.C.NNZ()},
	} {
		if pair[0] != pair[1] {
			return fmt.Errorf("spgemm: %d %s owners, want %d", pair[0], name, pair[1])
		}
	}
	for _, owners := range [][]int{asg.TaskOwner, asg.AOwner, asg.BOwner, asg.COwner} {
		for _, p := range owners {
			if p < 0 || p >= asg.K {
				return fmt.Errorf("spgemm: owner %d out of range [0,%d)", p, asg.K)
			}
		}
	}
	return nil
}

// Loads returns the number of multiplication tasks per part.
func (asg *Assignment) Loads() []int {
	loads := make([]int, asg.K)
	for _, p := range asg.TaskOwner {
		loads[p]++
	}
	return loads
}

// needers returns, for every stored element of A, B and C, the parts
// whose tasks touch it, in first-seen canonical task order (for A and
// B: parts that multiply with it; for C: parts producing a partial).
// The first-seen ordering is what Execute replays, so Measure and
// Execute agree by construction on everything except the values.
func (asg *Assignment) needers() (aParts, bParts, cParts [][]int32) {
	aParts = make([][]int32, asg.A.NNZ())
	bParts = make([][]int32, asg.B.NNZ())
	cParts = make([][]int32, asg.C.NNZ())
	add := func(list []int32, p int32) []int32 {
		for _, q := range list {
			if q == p {
				return list
			}
		}
		return append(list, p)
	}
	forEachTask(asg.A, asg.B, asg.C, func(t, aPos, bPos, cPos int) {
		p := int32(asg.TaskOwner[t])
		aParts[aPos] = add(aParts[aPos], p)
		bParts[bPos] = add(bParts[bPos], p)
		cParts[cPos] = add(cParts[cPos], p)
	})
	return aParts, bParts, cParts
}

// Measure computes the communication profile of an SpGEMM assignment
// analytically, with the same conventions as comm.Measure: one word
// per element per remote part that needs it, messages aggregated per
// ordered (sender, receiver) pair per phase. The expand phase carries
// both operands — an expand message p→q bundles every A and B word
// going p→q, mirroring a Sparse-SUMMA round; the fold phase carries
// the partial-C words. Loads count multiplication tasks.
func Measure(asg *Assignment) (*comm.Stats, error) {
	if err := asg.Validate(); err != nil {
		return nil, err
	}
	k := asg.K
	s := &comm.Stats{
		K:          k,
		SendVolume: make([]int, k),
		RecvVolume: make([]int, k),
	}
	expandPairs := make([]bool, k*k)
	foldPairs := make([]bool, k*k)

	aParts, bParts, cParts := asg.needers()
	expand := func(owners []int, parts [][]int32) {
		for pos, list := range parts {
			owner := owners[pos]
			for _, p32 := range list {
				p := int(p32)
				if p == owner {
					continue
				}
				s.ExpandVolume++
				s.SendVolume[owner]++
				s.RecvVolume[p]++
				expandPairs[owner*k+p] = true
			}
		}
	}
	expand(asg.AOwner, aParts)
	expand(asg.BOwner, bParts)
	for pos, list := range cParts {
		owner := asg.COwner[pos]
		for _, p32 := range list {
			p := int(p32)
			if p == owner {
				continue
			}
			s.FoldVolume++
			s.SendVolume[p]++
			s.RecvVolume[owner]++
			foldPairs[p*k+owner] = true
		}
	}

	s.Finish(expandPairs, foldPairs, asg.Loads())
	return s, nil
}

// Result is what the simulated executor actually did: the computed
// product and the realized traffic, split by phase.
type Result struct {
	// C carries the values computed by the simulated run (same pattern
	// as the assignment's C).
	C *sparse.CSR

	ExpandAWords   int
	ExpandBWords   int
	FoldWords      int
	ExpandMessages int
	FoldMessages   int
}

// TotalWords sums the realized per-phase word counts.
func (r *Result) TotalWords() int { return r.ExpandAWords + r.ExpandBWords + r.FoldWords }

// Execute runs the assignment through a simulated Sparse-SUMMA-style
// message-passing executor. Expand: every A and B value travels from
// its owner to each remote part whose tasks need it (counted word by
// word; one expand message per ordered pair carries both operands).
// Compute: each part multiplies strictly from its local store —
// a value it never received is an ownership bug and fails the run.
// Fold: partial c_ij values travel to the owner of c_ij and
// accumulate owner-partial first, then ascending part order, so the
// result is bitwise deterministic. The realized word and message
// counts are returned for the tests to pin against Measure and the
// models' Predict.
func Execute(asg *Assignment) (*Result, error) {
	if err := asg.Validate(); err != nil {
		return nil, err
	}
	k := asg.K
	aParts, bParts, _ := asg.needers()

	res := &Result{}
	expandPairs := make([]bool, k*k)

	// Expand phase: per-part local stores keyed by CSR position.
	locA := make([]map[int]float64, k)
	locB := make([]map[int]float64, k)
	for p := 0; p < k; p++ {
		locA[p] = make(map[int]float64)
		locB[p] = make(map[int]float64)
	}
	for pos, owner := range asg.AOwner {
		locA[owner][pos] = asg.A.Val[pos]
	}
	for pos, owner := range asg.BOwner {
		locB[owner][pos] = asg.B.Val[pos]
	}
	for pos, list := range aParts {
		owner := asg.AOwner[pos]
		for _, p32 := range list {
			if p := int(p32); p != owner {
				locA[p][pos] = asg.A.Val[pos]
				res.ExpandAWords++
				expandPairs[owner*k+p] = true
			}
		}
	}
	for pos, list := range bParts {
		owner := asg.BOwner[pos]
		for _, p32 := range list {
			if p := int(p32); p != owner {
				locB[p][pos] = asg.B.Val[pos]
				res.ExpandBWords++
				expandPairs[owner*k+p] = true
			}
		}
	}

	// Compute phase: strictly local reads; accumulate partials per part
	// in canonical task order (ascending-k within each c_ij).
	partials := make([]map[int]float64, k)
	for p := 0; p < k; p++ {
		partials[p] = make(map[int]float64)
	}
	var execErr error
	forEachTask(asg.A, asg.B, asg.C, func(t, aPos, bPos, cPos int) {
		if execErr != nil {
			return
		}
		p := asg.TaskOwner[t]
		av, okA := locA[p][aPos]
		bv, okB := locB[p][bPos]
		if !okA || !okB {
			execErr = fmt.Errorf("spgemm: task %d on part %d missing operand (A:%v B:%v) — ownership bug", t, p, okA, okB)
			return
		}
		partials[p][cPos] += av * bv
	})
	if execErr != nil {
		return nil, execErr
	}

	// Fold phase: owner partial first, then ascending parts.
	foldPairs := make([]bool, k*k)
	cVal := make([]float64, asg.C.NNZ())
	for pos := 0; pos < asg.C.NNZ(); pos++ {
		owner := asg.COwner[pos]
		sum := partials[owner][pos]
		for p := 0; p < k; p++ {
			if p == owner {
				continue
			}
			if v, ok := partials[p][pos]; ok {
				sum += v
				res.FoldWords++
				foldPairs[p*k+owner] = true
			}
		}
		cVal[pos] = sum
	}
	for pq := range expandPairs {
		if expandPairs[pq] {
			res.ExpandMessages++
		}
		if foldPairs[pq] {
			res.FoldMessages++
		}
	}

	res.C = &sparse.CSR{
		Rows: asg.C.Rows, Cols: asg.C.Cols,
		RowPtr: asg.C.RowPtr, ColIdx: asg.C.ColIdx, Val: cVal,
	}
	return res, nil
}
