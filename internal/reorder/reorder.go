// Package reorder decodes decompositions into cache-locality
// permutations. The same row/column-net machinery that minimizes
// interprocessor communication volume also minimizes cache misses on a
// single node (Akbudak, Kayaaslan & Aykanat): a K-way partition of the
// rows groups rows with overlapping column footprints, so permuting
// rows and columns by part turns the matrix into a sequence of
// cache-sized blocks whose x-vector working sets are compact. This
// package holds the permutation algebra (decode from an assignment,
// inversion, composition), a CSR permute that reuses pooled scratch,
// and the sidecar .perm file format cmd/sparsepart emits next to a
// reordered matrix.
package reorder

import (
	"fmt"
	"sort"
	"sync"

	"finegrain/internal/core"
	"finegrain/internal/obs"
	"finegrain/internal/sparse"
)

// Permutation is a row/column reordering of a matrix: original row i
// moves to permuted position Row[i], original column j to Col[j]. Both
// arrays are bijections onto [0, len).
type Permutation struct {
	Row []int32
	Col []int32
}

// Identity returns the identity permutation for a rows×cols matrix.
func Identity(rows, cols int) *Permutation {
	p := &Permutation{Row: make([]int32, rows), Col: make([]int32, cols)}
	for i := range p.Row {
		p.Row[i] = int32(i)
	}
	for j := range p.Col {
		p.Col[j] = int32(j)
	}
	return p
}

// Validate checks that Row and Col are bijections.
func (p *Permutation) Validate() error {
	for name, perm := range map[string][]int32{"row": p.Row, "col": p.Col} {
		seen := make([]bool, len(perm))
		for i, v := range perm {
			if v < 0 || int(v) >= len(perm) {
				return fmt.Errorf("reorder: %s perm maps %d to %d, out of [0,%d)", name, i, v, len(perm))
			}
			if seen[v] {
				return fmt.Errorf("reorder: %s perm maps two indices to %d", name, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// Inverse returns the permutation q with q.Row[p.Row[i]] = i (and the
// same for columns): applying p then its inverse is the identity.
func (p *Permutation) Inverse() *Permutation {
	q := &Permutation{Row: make([]int32, len(p.Row)), Col: make([]int32, len(p.Col))}
	for i, v := range p.Row {
		q.Row[v] = int32(i)
	}
	for j, v := range p.Col {
		q.Col[v] = int32(j)
	}
	return q
}

// Then composes permutations: the result applies p first, then q
// (r.Row[i] = q.Row[p.Row[i]]). The shapes must agree.
func (p *Permutation) Then(q *Permutation) (*Permutation, error) {
	if len(p.Row) != len(q.Row) || len(p.Col) != len(q.Col) {
		return nil, fmt.Errorf("reorder: composing %dx%d with %dx%d permutation",
			len(p.Row), len(p.Col), len(q.Row), len(q.Col))
	}
	r := &Permutation{Row: make([]int32, len(p.Row)), Col: make([]int32, len(p.Col))}
	for i, v := range p.Row {
		r.Row[i] = q.Row[v]
	}
	for j, v := range p.Col {
		r.Col[j] = q.Col[v]
	}
	return r, nil
}

// FromAssignmentTraced decodes a decomposition into a cache-blocking
// permutation: rows are grouped by their y owner and columns by their
// x owner, original order preserved within a group (the decode is a
// stable counting sort, so it is deterministic). Rows computed by one
// simulated processor — whose column footprints the partitioner made
// overlap — become one contiguous block, and the x entries that block
// reads become contiguous too. It records one "decode" span in the
// "reorder" category on tr's default track (no-op when tr is nil).
func FromAssignmentTraced(asg *core.Assignment, tr *obs.Trace) (*Permutation, error) {
	sp := tr.Begin("reorder", "decode")
	defer func() { sp.End() }()
	if err := asg.Validate(); err != nil {
		return nil, fmt.Errorf("reorder: %w", err)
	}
	sp = sp.Arg("k", int64(asg.K)).Arg("rows", int64(asg.A.Rows))
	p := &Permutation{
		Row: rankByGroup(asg.YOwner, asg.K),
		Col: rankByGroup(asg.XOwner, asg.K),
	}
	return p, nil
}

// rankByGroup assigns each index its position under a stable sort by
// (owner, index): counting sort by owner, original order kept within
// an owner.
func rankByGroup(owner []int, k int) []int32 {
	counts := make([]int32, k+1)
	for _, o := range owner {
		counts[o+1]++
	}
	for g := 0; g < k; g++ {
		counts[g+1] += counts[g]
	}
	rank := make([]int32, len(owner))
	for i, o := range owner {
		rank[i] = counts[o]
		counts[o]++
	}
	return rank
}

// csrScratch is the reusable transient state of Apply: the inverse row
// map and the per-row sort adapter. Pooled so repeated permutes (the
// bench harness, a reordering server) do not re-allocate it.
type csrScratch struct {
	invRow []int32
	sorter pairSorter
}

var csrScratchPool = sync.Pool{New: func() any { return new(csrScratch) }}

// pairSorter sorts one row's (column, value) pairs in place.
type pairSorter struct {
	cols []int
	vals []float64
}

func (s *pairSorter) Len() int           { return len(s.cols) }
func (s *pairSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *pairSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Apply returns the permuted matrix B with B[p.Row[i], p.Col[j]] =
// A[i, j]. The result is a fresh valid CSR matrix (columns sorted
// ascending within each row); transient buffers come from a pooled
// scratch, so only the result arrays are allocated.
func (p *Permutation) Apply(a *sparse.CSR) (*sparse.CSR, error) {
	if len(p.Row) != a.Rows || len(p.Col) != a.Cols {
		return nil, fmt.Errorf("reorder: %dx%d permutation applied to %dx%d matrix",
			len(p.Row), len(p.Col), a.Rows, a.Cols)
	}
	sc := csrScratchPool.Get().(*csrScratch)
	defer csrScratchPool.Put(sc)
	if cap(sc.invRow) < a.Rows {
		sc.invRow = make([]int32, a.Rows)
	}
	invRow := sc.invRow[:a.Rows]
	for i, v := range p.Row {
		invRow[v] = int32(i)
	}

	b := &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for r := 0; r < a.Rows; r++ {
		b.RowPtr[r+1] = b.RowPtr[r] + a.RowNNZ(int(invRow[r]))
	}
	for r := 0; r < a.Rows; r++ {
		old := int(invRow[r])
		dst := b.RowPtr[r]
		for t := a.RowPtr[old]; t < a.RowPtr[old+1]; t++ {
			b.ColIdx[dst] = int(p.Col[a.ColIdx[t]])
			b.Val[dst] = a.Val[t]
			dst++
		}
		sc.sorter.cols = b.ColIdx[b.RowPtr[r]:dst]
		sc.sorter.vals = b.Val[b.RowPtr[r]:dst]
		sort.Sort(&sc.sorter)
	}
	sc.sorter.cols, sc.sorter.vals = nil, nil
	return b, nil
}

// ApplyVec scatters src (original index space) into dst (permuted
// space): dst[perm[i]] = src[i]. perm is one of Permutation.Row or
// Permutation.Col depending on whether the vector lives in row or
// column space (for y = Ax, x uses Col and y uses Row).
func ApplyVec(dst, src []float64, perm []int32) {
	for i, v := range src {
		dst[perm[i]] = v
	}
}

// UnapplyVec gathers src (permuted space) back into dst (original
// space): dst[i] = src[perm[i]].
func UnapplyVec(dst, src []float64, perm []int32) {
	for i := range dst {
		dst[i] = src[perm[i]]
	}
}
