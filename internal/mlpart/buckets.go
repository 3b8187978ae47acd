package mlpart

// Buckets is the classic Fiduccia–Mattheyses gain-bucket structure:
// one array of doubly linked lists per side, indexed by gain (shifted
// by off so negative gains index correctly), with a moving max-gain
// pointer per side. The zero value is empty; Ensure sizes it.
type Buckets struct {
	off   int
	heads [2][]int
	next  []int
	prev  []int
	gain  []int
	side  []int8
	in    []bool
	maxG  [2]int
	count [2]int
}

// Ensure (re)initializes b for numV vertices with gains in
// [−maxBound, maxBound], growing its arrays in place. Only the
// membership flags and bucket heads need clearing: next/prev/gain/side
// are written before any read for every inserted vertex, so stale
// entries from a previous use are never observed.
func (b *Buckets) Ensure(numV, maxBound int) {
	b.off = maxBound
	b.next = Grow(b.next, numV)
	b.prev = Grow(b.prev, numV)
	b.gain = Grow(b.gain, numV)
	b.side = Grow(b.side, numV)
	b.in = Grow(b.in, numV)
	clear(b.in)
	for s := 0; s < 2; s++ {
		b.heads[s] = Grow(b.heads[s], 2*maxBound+1)
		for i := range b.heads[s] {
			b.heads[s][i] = -1
		}
		b.maxG[s] = -maxBound - 1
		b.count[s] = 0
	}
}

// Len is the number of bucketed vertices on both sides.
func (b *Buckets) Len() int { return b.count[0] + b.count[1] }

// Insert files v under side and gain, at the head of its bucket.
func (b *Buckets) Insert(v int, side int8, gain int) {
	idx := gain + b.off
	s := int(side)
	b.gain[v] = gain
	b.side[v] = side
	b.in[v] = true
	head := b.heads[s][idx]
	b.next[v] = head
	b.prev[v] = -1
	if head >= 0 {
		b.prev[head] = v
	}
	b.heads[s][idx] = v
	if gain > b.maxG[s] {
		b.maxG[s] = gain
	}
	b.count[s]++
}

// Remove unlinks v; a no-op when v is not bucketed.
func (b *Buckets) Remove(v int) {
	if !b.in[v] {
		return
	}
	s := int(b.side[v])
	idx := b.gain[v] + b.off
	if b.prev[v] >= 0 {
		b.next[b.prev[v]] = b.next[v]
	} else {
		b.heads[s][idx] = b.next[v]
	}
	if b.next[v] >= 0 {
		b.prev[b.next[v]] = b.prev[v]
	}
	b.in[v] = false
	b.count[s]--
}

// Update adds delta to v's gain and re-files v at the head of its new
// bucket; a no-op when v is not bucketed.
func (b *Buckets) Update(v, delta int) {
	if !b.in[v] {
		return
	}
	side := b.side[v]
	g := b.gain[v] + delta
	b.Remove(v)
	b.Insert(v, side, g)
}

// BestFeasible finds the highest-gain vertex on side s whose move to
// the other side keeps that side's weight wOther + vw[v] within
// maxOther. It probes at most bucketCap vertices within a single gain
// bucket before advancing to the next (lower-gain) bucket — a cluster
// of heavy vertices at the top gain must not hide feasible moves below
// it — and at most totalCap vertices overall before giving up (weights
// are near-uniform in practice, so the first candidate almost always
// fits). With bucketCap == totalCap the total cap always ends the
// search first, so the probe is a single cap over all buckets.
func (b *Buckets) BestFeasible(vw []int, s int, wOther, maxOther float64, bucketCap, totalCap int) (v, gain int, ok bool) {
	if b.count[s] == 0 {
		return -1, 0, false
	}
	total := 0
	for g := b.maxG[s]; g >= -b.off; g-- {
		v := b.heads[s][g+b.off]
		if v < 0 {
			if g == b.maxG[s] {
				b.maxG[s] = g - 1
			}
			continue
		}
		inBucket := 0
		for v >= 0 {
			if wOther+float64(vw[v]) <= maxOther+1e-9 {
				return v, g, true
			}
			total++
			if total >= totalCap {
				return -1, 0, false
			}
			inBucket++
			if inBucket >= bucketCap {
				break // blocked bucket: fall through to lower gains
			}
			v = b.next[v]
		}
	}
	return -1, 0, false
}
