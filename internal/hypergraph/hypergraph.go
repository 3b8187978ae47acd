// Package hypergraph implements the hypergraph data structure and the
// partition-quality metrics from the paper's Section 2: a hypergraph
// H = (V, N) with vertex weights and net costs, K-way vertex partitions,
// the balance criterion (1), and the two cutsize definitions (2)
// (cut-net) and (3) (connectivity−1). The connectivity−1 metric is the
// one the fine-grain model minimizes, because it exactly equals
// communication volume.
//
// Storage is index-based and compact: pins of each net and nets of each
// vertex are stored in two CSR-style arrays, which is the layout the
// multilevel partitioner in internal/hgpart traverses.
package hypergraph

import (
	"errors"
	"fmt"
)

// Hypergraph is an immutable hypergraph. Construct instances with a
// Builder, or with FromCompact from arrays that already have the form
// Build establishes (sorted unique pins); the partitioner relies on
// those invariants. Reset, which rebuilds a value in place, is for
// owners that recycle hypergraphs nothing else can see.
type Hypergraph struct {
	numV int
	numN int

	// xpins[n] .. xpins[n+1] index pins of net n.
	xpins []int
	pins  []int

	// vnetPtr[v] .. vnetPtr[v+1] index nets of vertex v.
	vnetPtr []int
	vnets   []int

	vweight []int
	netCost []int
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return h.numV }

// NumNets returns |N|.
func (h *Hypergraph) NumNets() int { return h.numN }

// NumPins returns the total number of pins Σ|n|.
func (h *Hypergraph) NumPins() int { return len(h.pins) }

// Pins returns the pin list of net n as a sub-slice of the underlying
// storage. Callers must not modify it.
func (h *Hypergraph) Pins(n int) []int { return h.pins[h.xpins[n]:h.xpins[n+1]] }

// Nets returns the net list of vertex v as a sub-slice of the underlying
// storage. Callers must not modify it.
func (h *Hypergraph) Nets(v int) []int { return h.vnets[h.vnetPtr[v]:h.vnetPtr[v+1]] }

// NetSize returns |pins[n]|.
func (h *Hypergraph) NetSize(n int) int { return h.xpins[n+1] - h.xpins[n] }

// Degree returns |nets[v]|.
func (h *Hypergraph) Degree(v int) int { return h.vnetPtr[v+1] - h.vnetPtr[v] }

// VertexWeight returns w_v.
func (h *Hypergraph) VertexWeight(v int) int { return h.vweight[v] }

// VertexWeights returns w_v for every vertex. The slice is h's own
// storage: callers must not modify it.
func (h *Hypergraph) VertexWeights() []int { return h.vweight }

// NetCost returns c_n.
func (h *Hypergraph) NetCost(n int) int { return h.netCost[n] }

// TotalVertexWeight returns Σ w_v.
func (h *Hypergraph) TotalVertexWeight() int {
	total := 0
	for _, w := range h.vweight {
		total += w
	}
	return total
}

// String returns a compact summary.
func (h *Hypergraph) String() string {
	return fmt.Sprintf("Hypergraph{V=%d, N=%d, pins=%d}", h.numV, h.numN, len(h.pins))
}

// Builder assembles a hypergraph incrementally. Pins may be added in any
// order; duplicates within a net are merged by Build.
type Builder struct {
	numV    int
	netPins [][]int
	vweight []int
	netCost []int
}

// NewBuilder returns a builder for a hypergraph with numV vertices (all
// weight 1) and numN nets (all cost 1).
func NewBuilder(numV, numN int) *Builder {
	b := &Builder{
		numV:    numV,
		netPins: make([][]int, numN),
		vweight: make([]int, numV),
		netCost: make([]int, numN),
	}
	for i := range b.vweight {
		b.vweight[i] = 1
	}
	for i := range b.netCost {
		b.netCost[i] = 1
	}
	return b
}

// AddPin connects vertex v to net n. It panics on out-of-range indices.
func (b *Builder) AddPin(n, v int) {
	if n < 0 || n >= len(b.netPins) {
		panic(fmt.Sprintf("hypergraph: net %d out of range [0,%d)", n, len(b.netPins)))
	}
	if v < 0 || v >= b.numV {
		panic(fmt.Sprintf("hypergraph: vertex %d out of range [0,%d)", v, b.numV))
	}
	b.netPins[n] = append(b.netPins[n], v)
}

// SetVertexWeight sets w_v.
func (b *Builder) SetVertexWeight(v, w int) { b.vweight[v] = w }

// SetNetCost sets c_n.
func (b *Builder) SetNetCost(n, c int) { b.netCost[n] = c }

// Build freezes the builder into an immutable hypergraph. Duplicate pins
// within a net are merged; pins within each net are sorted ascending.
func (b *Builder) Build() *Hypergraph {
	h := &Hypergraph{
		numV:    b.numV,
		numN:    len(b.netPins),
		vweight: append([]int(nil), b.vweight...),
		netCost: append([]int(nil), b.netCost...),
	}
	// Deduplicate pins per net with a mark array (O(pins) total).
	mark := make([]int, b.numV)
	for i := range mark {
		mark[i] = -1
	}
	totalPins := 0
	deduped := make([][]int, len(b.netPins))
	for n, ps := range b.netPins {
		out := ps[:0]
		for _, v := range ps {
			if mark[v] != n {
				mark[v] = n
				out = append(out, v)
			}
		}
		insertionSort(out)
		deduped[n] = out
		totalPins += len(out)
	}
	h.xpins = make([]int, h.numN+1)
	h.pins = make([]int, totalPins)
	pos := 0
	for n, ps := range deduped {
		h.xpins[n] = pos
		copy(h.pins[pos:], ps)
		pos += len(ps)
	}
	h.xpins[h.numN] = pos

	// Invert to vertex→nets.
	h.vnetPtr = make([]int, h.numV+1)
	for _, v := range h.pins {
		h.vnetPtr[v+1]++
	}
	for v := 0; v < h.numV; v++ {
		h.vnetPtr[v+1] += h.vnetPtr[v]
	}
	h.vnets = make([]int, totalPins)
	next := make([]int, h.numV)
	copy(next, h.vnetPtr[:h.numV])
	for n := 0; n < h.numN; n++ {
		for _, v := range h.Pins(n) {
			h.vnets[next[v]] = n
			next[v]++
		}
	}
	return h
}

// FromCompact freezes prebuilt CSR-style arrays directly into a
// hypergraph, taking ownership of all four slices: vweight (one weight
// per vertex), netCost (one cost per net), xpins (len(netCost)+1
// monotone offsets with xpins[0] == 0), and pins (len = xpins[last])
// whose per-net segments must already be sorted ascending and
// duplicate-free, with every pin in [0, len(vweight)).
//
// This is the allocation-lean fast path for callers that produce
// exactly this layout: unlike Builder.Build it performs no per-net
// slice bookkeeping, deduplication, or sorting — only the vertex→net
// inversion is computed here. The input invariants are the caller's
// responsibility and are checked by Validate, not by this constructor.
// It is new + Reset; the partitioner, which rebuilds the same
// hypergraph values level after level, calls Reset directly.
func FromCompact(vweight, netCost, xpins, pins []int) *Hypergraph {
	h := new(Hypergraph)
	h.Reset(vweight, netCost, xpins, pins)
	return h
}

// Reset rebuilds h in place with FromCompact's contract: h takes
// ownership of the four slices, whose invariants are the caller's. The
// vertex→net inversion reuses h's own storage when its capacity
// suffices, so a warm h rebuilds without allocating. Nothing may still
// be reading h.
func (h *Hypergraph) Reset(vweight, netCost, xpins, pins []int) {
	numV, numN := len(vweight), len(netCost)
	if len(xpins) != numN+1 {
		panic(fmt.Sprintf("hypergraph: FromCompact xpins length %d, want %d", len(xpins), numN+1))
	}
	if len(pins) != xpins[numN] {
		panic(fmt.Sprintf("hypergraph: FromCompact pins length %d, want %d", len(pins), xpins[numN]))
	}
	vnetPtr := grow(h.vnetPtr, numV+1)
	clear(vnetPtr)
	vnets := grow(h.vnets, len(pins))
	*h = Hypergraph{
		numV: numV, numN: numN,
		xpins: xpins, pins: pins,
		vnetPtr: vnetPtr, vnets: vnets,
		vweight: vweight, netCost: netCost,
	}
	// Invert to vertex→nets with the offset-shift trick: vnetPtr[v] is
	// used as the running write cursor, then shifted back one slot.
	for _, v := range pins {
		vnetPtr[v+1]++
	}
	for v := 0; v < numV; v++ {
		vnetPtr[v+1] += vnetPtr[v]
	}
	for n := 0; n < numN; n++ {
		for _, v := range pins[xpins[n]:xpins[n+1]] {
			vnets[vnetPtr[v]] = n
			vnetPtr[v]++
		}
	}
	for v := numV; v > 0; v-- {
		vnetPtr[v] = vnetPtr[v-1]
	}
	vnetPtr[0] = 0
}

// grow returns a slice of length n, reusing buf's storage when its
// capacity suffices. The contents are unspecified.
func grow(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// Validate checks the structural invariants of h.
func (h *Hypergraph) Validate() error {
	if len(h.xpins) != h.numN+1 || len(h.vnetPtr) != h.numV+1 {
		return errors.New("hypergraph: pointer array length mismatch")
	}
	if len(h.pins) != len(h.vnets) {
		return errors.New("hypergraph: pins and vnets length mismatch")
	}
	if len(h.vweight) != h.numV || len(h.netCost) != h.numN {
		return errors.New("hypergraph: weight/cost array length mismatch")
	}
	for n := 0; n < h.numN; n++ {
		if h.xpins[n] > h.xpins[n+1] {
			return fmt.Errorf("hypergraph: xpins not monotone at net %d", n)
		}
		prev := -1
		for _, v := range h.Pins(n) {
			if v < 0 || v >= h.numV {
				return fmt.Errorf("hypergraph: pin %d of net %d out of range", v, n)
			}
			if v <= prev {
				return fmt.Errorf("hypergraph: pins of net %d not sorted/unique", n)
			}
			prev = v
		}
	}
	// Cross-check: v ∈ pins[n] ⇔ n ∈ nets[v].
	count := 0
	for v := 0; v < h.numV; v++ {
		for _, n := range h.Nets(v) {
			if n < 0 || n >= h.numN {
				return fmt.Errorf("hypergraph: net %d of vertex %d out of range", n, v)
			}
			if !contains(h.Pins(n), v) {
				return fmt.Errorf("hypergraph: vertex %d lists net %d but is not a pin", v, n)
			}
			count++
		}
	}
	if count != len(h.pins) {
		return fmt.Errorf("hypergraph: %d vertex-net references vs %d pins", count, len(h.pins))
	}
	return nil
}

func contains(sorted []int, x int) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}
