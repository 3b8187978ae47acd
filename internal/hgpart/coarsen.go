package hgpart

import (
	"slices"
	"time"

	"finegrain/internal/hypergraph"
	"finegrain/internal/mlpart"
	"finegrain/internal/rng"
)

// level is one rung of the multilevel ladder: the hypergraph at this
// level, the map from this level's vertices to the next-coarser level's
// vertices, and the fixed-side constraints carried down.
type level struct {
	h         *hypergraph.Hypergraph
	fixedSide []int8
	// cmap[v] is the coarse vertex this level's vertex v collapses into
	// (valid for all levels except the last).
	cmap []int
}

// compressCoarseNets controls whether contract actually drops single-pin
// coarse nets and merges identical ones. It exists only so tests can run
// an uncompressed reference partition; identical-net detection still
// runs either way (the compact pin count drives the ladder stall check),
// so disabling it must not change any partitioning decision. Not safe to
// flip while partitions are in flight.
var compressCoarseNets = true

// coarsen builds the level ladder from h down to a hypergraph of at most
// opts.coarsenTo vertices (or until shrinkage stalls). levels[0] wraps h
// itself. fixedCap[s] bounds the total weight of clusters carrying fixed
// side s: free vertices absorbed into a fixed cluster are committed to
// that side for the rest of the ladder, and unbounded absorption can
// push a side past its balance cap before the initial bisection even
// runs. When ctx.sc is collecting and ctx.top is set (the first
// bisection), every rung's size and build time is recorded.
//
// Levels at or above opts.parallelThreshold vertices are clustered by
// the parallel round path (clusterRounds); smaller ones by the serial
// kernel. The choice depends only on the level size and the options,
// never on Workers or scheduling.
//
// A child bisection passes the ladder it inherited from its parent
// (inheritLadder) as inh, nil when it has none: level ℓ then takes
// inh.cmap[ℓ] in place of clustering, for as many levels as inh holds,
// and the levels below are clustered afresh. Inherited levels draw no
// random numbers.
//
// The ladder stalls on either of two signals: cluster merging too few
// vertices (<10% shrinkage), or the compact pin count shrinking by less
// than 5% — a level full of high-degree vertices can shed plenty of
// vertices while keeping nearly every pin, and such a level makes every
// later phase pay full price for almost no reduction in work.
func coarsen(ctx bisectCtx, h *hypergraph.Hypergraph, fixedSide []int8, fixedCap [2]float64,
	inh *inherited, opts Options, r *rng.RNG, s *scratch) []*level {

	sc, tk := ctx.sc, ctx.tk
	record := sc.enabled() && ctx.top
	top := s.rungAt(0)
	top.lv = level{h: h, fixedSide: fixedSide}
	levels := append(s.levels[:0], &top.lv)
	if record {
		sc.addLevel(LevelStat{Vertices: h.NumVertices(), Nets: h.NumNets(), Pins: h.NumPins()})
	}
	cur := top
	// The stall check compares compact pin counts (after single-pin
	// dropping and identical-net merging) level over level, so the
	// decision sequence is identical whether or not compression is
	// actually applied to the built hypergraphs.
	prevCompactPins := h.NumPins()
	for len(levels) < mlpart.MaxLevels && cur.lv.h.NumVertices() > opts.coarsenTo {
		if opts.Canceled() != nil {
			// Stop building the ladder; the caller polls the context right
			// after coarsening and surfaces the error.
			break
		}
		var t0 time.Time
		if record {
			t0 = time.Now()
		}
		fine := &cur.lv
		ell := len(levels) - 1
		inherit := inh != nil && ell < len(inh.numC)
		var inheritArg int64
		if inherit {
			inheritArg = 1
		}
		lsp := tk.Begin("hgpart", "coarsen.level").
			Arg("level", int64(len(levels))).Arg("vertices", int64(fine.h.NumVertices())).
			Arg("inherited", inheritArg)
		var numC int
		var cmap []int
		switch {
		case inherit:
			cmap, numC = inh.cmap[ell], inh.numC[ell]
		case fine.h.NumVertices() >= opts.parallelThreshold:
			numC = clusterRounds(ctx, fine.h, fine.fixedSide, fixedCap, opts, r, s, cur)
			cmap = cur.cmap
		default:
			numC = cluster(fine.h, fine.fixedSide, fixedCap, opts, r, s, cur)
			cmap = cur.cmap
		}
		if numC >= fine.h.NumVertices()*9/10 {
			lsp.End()
			break // stalled: less than 10% shrinkage is not worth a level
		}
		fine.cmap = cmap
		next := s.rungAt(len(levels))
		coarseH, compactPins := contract(fine.h, cmap, numC, s, &next.arenaHG)
		coarseFixed := mlpart.Grow(next.fixedSide, numC)
		for i := range coarseFixed {
			coarseFixed[i] = -1
		}
		for v, c := range cmap {
			if fine.fixedSide[v] >= 0 {
				coarseFixed[c] = fine.fixedSide[v]
			}
		}
		next.fixedSide = coarseFixed
		next.lv = level{h: coarseH, fixedSide: coarseFixed}
		levels = append(levels, &next.lv)
		cur = next
		lsp.Arg("coarseVertices", int64(numC)).End()
		if record {
			sc.addLevel(LevelStat{
				Vertices:  coarseH.NumVertices(),
				Nets:      coarseH.NumNets(),
				Pins:      coarseH.NumPins(),
				BuildTime: time.Since(t0),
			})
		}
		if compactPins*20 > prevCompactPins*19 {
			break // stalled: pins shrank by less than 5%
		}
		prevCompactPins = compactPins
	}
	s.levels = levels
	return levels
}

// inheritLadder derives the coarsening ladder that side want of a
// finished bisection inherits, writing it into dst. levels is the
// bisection's ladder and side its level-0 sides. The child's level-ℓ
// vertices are the level-ℓ vertices of levels with at least one level-0
// descendant on the side; cluster c of the parent level thus becomes
// one child cluster per side it has members on. Child vertices are
// numbered densely in first-encounter order: level 0 in ascending
// vertex order, as inducedSide numbers the child's hypergraph, and
// each coarser level in the order the child's finer level reaches it.
//
// Derivation stops at the first level that would keep fewer than
// minC vertices. Inherited clusters were formed under the parent's
// cluster-weight cap, twice the child's, so near the coarsest levels
// they would be too heavy for the child's own balance; the child
// clusters those levels afresh.
//
// The maps are copied into dst, child storage with the child's
// lifetime: the child never reads the parent's rungs, which the next
// bisection on this arena rewrites. A warm dst and arena allocate
// nothing.
func inheritLadder(levels []*level, side []int8, want int8, minC int, s *scratch, dst *inherited) *inherited {
	// from lists, for each child vertex of the current level, the parent
	// vertex it is a restriction of.
	from := s.inhFrom[0][:0]
	for v, sd := range side {
		if sd == want {
			from = append(from, v)
		}
	}
	s.inhFrom[0] = from
	dst.numC = dst.numC[:0]
	for ell := 0; ell+1 < len(levels); ell++ {
		pmap := levels[ell].cmap
		id := mlpart.Grow(s.inhID, levels[ell+1].h.NumVertices())
		for i := range id {
			id[i] = -1
		}
		s.inhID = id
		// The child level has at most as many vertices as its finer one.
		b := (ell + 1) % 2
		next := mlpart.Grow(s.inhFrom[b], len(from))
		if ell < cap(dst.cmap) {
			dst.cmap = dst.cmap[:ell+1]
		} else {
			dst.cmap = append(dst.cmap, nil)
		}
		cmap := mlpart.Grow(dst.cmap[ell], len(from))
		dst.cmap[ell] = cmap
		numC := 0
		for i, p := range from {
			c := pmap[p]
			if id[c] < 0 {
				id[c] = numC
				next[numC] = c
				numC++
			}
			cmap[i] = id[c]
		}
		s.inhFrom[b] = next
		if numC < minC {
			break
		}
		dst.numC = append(dst.numC, numC)
		from = next[:numC]
	}
	dst.cmap = dst.cmap[:len(dst.numC)]
	return dst
}

// mergeRule is the one merge filter of coarsening, shared by the
// serial kernel (cluster), the parallel round's proposal scoring
// (clusterRound.scoreChunk) and its apply phase. Candidate keys name
// either an existing cluster (key < keyBase) or an unclustered vertex
// (key − keyBase). While a level is being clustered, cmap holds every
// vertex's current key: its cluster once it has one, keyBase + v
// before.
type mergeRule struct {
	h           *hypergraph.Hypergraph
	fixedSide   []int8
	keyBase     int
	maxClusterW int
	fixedCap    [2]float64
}

// newMergeRule sets up the merge filter of one level and returns the
// weight already committed to each fixed side (the fixed vertices
// themselves), the starting value of the boundW the filter checks.
func newMergeRule(h *hypergraph.Hypergraph, fixedSide []int8, fixedCap [2]float64, opts Options) (mergeRule, [2]float64) {
	maxClusterW := h.TotalVertexWeight()/opts.coarsenTo + 1
	if maxClusterW < 2 {
		maxClusterW = 2
	}
	var boundW [2]float64
	for v, sd := range fixedSide {
		if sd >= 0 {
			boundW[sd] += float64(h.VertexWeight(v))
		}
	}
	return mergeRule{h: h, fixedSide: fixedSide, keyBase: h.NumVertices(),
		maxClusterW: maxClusterW, fixedCap: fixedCap}, boundW
}

// check reports whether a vertex of weight wv and fixed side sv may
// merge with candidate key, given the clusters formed so far and the
// weight boundW already committed to each fixed side: the union must
// fit maxClusterW, fixed sides must agree, and the free weight the
// merge newly binds to a fixed side must keep that side within
// fixedCap. Free vertices absorbed into a fixed cluster are committed
// to that side for the rest of the ladder, so the cap keeps the
// coarsest level bisectable whenever the fine level is. On success it
// returns the bound side (−1 for none) and the weight bound to it.
func (m *mergeRule) check(key, wv int, sv int8, clusters []clusterMeta, boundW *[2]float64) (bindSide int, bindW float64, ok bool) {
	var uw int
	var uside int8
	if key < m.keyBase {
		uw, uside = clusters[key].w, clusters[key].side
	} else {
		u := key - m.keyBase
		uw, uside = m.h.VertexWeight(u), m.fixedSide[u]
	}
	if uw+wv > m.maxClusterW || (sv >= 0 && uside >= 0 && sv != uside) {
		return -1, 0, false
	}
	// A side-less candidate (vertex or cluster) is entirely free weight;
	// fixed weight is already counted in boundW.
	bindSide, bindW = -1, 0
	switch {
	case sv >= 0 && uside < 0:
		bindSide, bindW = int(sv), float64(uw)
	case sv < 0 && uside >= 0:
		bindSide, bindW = int(uside), float64(wv)
	}
	if bindSide >= 0 && boundW[bindSide]+bindW > m.fixedCap[bindSide]+1e-9 {
		return -1, 0, false
	}
	return bindSide, bindW, true
}

// join merges vertex v (weight wv, fixed side sv) into candidate key,
// which check accepted: v joins the existing cluster, or opens a new
// cluster with the unclustered vertex. It returns the grown cluster
// list; cluster ids are positions in it.
func (m *mergeRule) join(cmap []int, clusters []clusterMeta, v, key, wv int, sv int8) []clusterMeta {
	if key < m.keyBase {
		cmap[v] = key
		clusters[key].w += wv
		if sv >= 0 {
			clusters[key].side = sv
		}
		return clusters
	}
	u := key - m.keyBase
	side := sv
	if side < 0 {
		side = m.fixedSide[u]
	}
	cmap[v], cmap[u] = len(clusters), len(clusters)
	return append(clusters, clusterMeta{w: wv + m.h.VertexWeight(u), side: side})
}

// cluster computes the heavy-connectivity clustering (PaToH's HCC) of
// h's vertices into rg.cmap (vertex → cluster id) and returns the
// number of clusters. Vertices are visited in random order; an
// unclustered vertex joins the neighbor — an unclustered vertex or an
// existing cluster — it shares the most net connectivity with, among
// the candidates mergeRule accepts. Vertices fixed to different sides are never
// merged, so constraints survive coarsening exactly.
func cluster(h *hypergraph.Hypergraph, fixedSide []int8, fixedCap [2]float64,
	opts Options, r *rng.RNG, s *scratch, rg *rung) int {
	numV := h.NumVertices()
	cmap := unclusteredKeys(rg, numV)
	m, boundW := newMergeRule(h, fixedSide, fixedCap, opts)
	clusters := s.clusters[:0]
	netInc := computeNetInc(h, opts, s)

	slots := mlpart.Grow(s.slots, 2*numV)
	epoch := s.epoch
	cands := s.cands[:0]

	order := mlpart.Grow(s.perm, numV)
	r.PermInto(order)
	for _, v := range order {
		if cmap[v] < numV {
			continue
		}
		epoch++
		cands = scoreCandidates(h, netInc, cmap, v, slots, epoch, cands)
		// Choose the first candidate of maximal score that the merge
		// filter accepts.
		wv, sv := h.VertexWeight(v), fixedSide[v]
		bestKey, bestScore := -1, 0.0
		bestBindSide, bestBindW := -1, 0.0
		for _, key := range cands {
			sc := slots[key].score
			if sc <= bestScore {
				continue
			}
			if bindSide, bindW, ok := m.check(key, wv, sv, clusters, &boundW); ok {
				bestKey, bestScore = key, sc
				bestBindSide, bestBindW = bindSide, bindW
			}
		}
		if bestKey < 0 {
			cmap[v] = len(clusters)
			clusters = append(clusters, clusterMeta{w: wv, side: sv})
			continue
		}
		if bestBindSide >= 0 {
			boundW[bestBindSide] += bestBindW
		}
		clusters = m.join(cmap, clusters, v, bestKey, wv, sv)
	}
	s.clusters, s.perm = clusters, order
	s.slots = slots
	s.cands = cands
	s.epoch = epoch
	return len(clusters)
}

// unclusteredKeys sets rg.cmap to the starting cmap of a level of numV
// vertices, every vertex v its own candidate key numV + v, and returns
// it.
func unclusteredKeys(rg *rung, numV int) []int {
	cmap := mlpart.Grow(rg.cmap, numV)
	for i := range cmap {
		cmap[i] = numV + i
	}
	rg.cmap = cmap
	return cmap
}

// scoreCandidates sums, for the unclustered vertex v, the connectivity
// it shares with each candidate over the nets netInc does not skip, and
// returns the candidates in first-encounter order (reusing cands'
// storage). A neighbor u's candidate key is cmap[u]: its cluster, or
// keyBase + u while unclustered. Scores accumulate in slots stamped
// with epoch; the epoch is monotonic across the scratch's lifetime and
// the caller increments it per vertex, so reused buffers need no
// reinitialization. v's own slot is stamped before the scan, so v never
// becomes its own candidate; the score it gathers there is never read.
func scoreCandidates(h *hypergraph.Hypergraph, netInc []float64, cmap []int, v int,
	slots []candSlot, epoch int, cands []int) []int {
	cands = cands[:0]
	slots[cmap[v]].stamp = epoch
	for _, net := range h.Nets(v) {
		inc := netInc[net]
		if inc == 0 {
			continue
		}
		for _, u := range h.Pins(net) {
			key := cmap[u]
			sl := &slots[key]
			if sl.stamp != epoch {
				sl.stamp = epoch
				sl.score = 0
				cands = append(cands, key)
			}
			sl.score += inc
		}
	}
	return cands
}

// computeNetInc fills the per-net connectivity increments used for
// candidate scoring, hoisted out of the per-vertex scan: zero marks
// nets skipped for matching (too small or too large).
func computeNetInc(h *hypergraph.Hypergraph, opts Options, s *scratch) []float64 {
	numN := h.NumNets()
	netInc := mlpart.Grow(s.netInc, numN)
	for n := 0; n < numN; n++ {
		size := h.NetSize(n)
		if size < 2 || size > opts.matchNetLimit {
			netInc[n] = 0
		} else {
			netInc[n] = float64(h.NetCost(n)) / float64(size-1)
		}
	}
	s.netInc = netInc
	return netInc
}

// clusterRounds is the parallel-round counterpart of cluster, used on
// levels at or above the parallel threshold. Each round scores a
// proposal per unmatched vertex concurrently over fixed chunks of the
// vertex ids (phase A, pure function of the previous round's
// snapshot), then applies proposals serially in the level's random
// permutation with live re-validation (phase B). A proposal whose
// target grew infeasible is skipped and the vertex retries next round;
// after coarsenRounds rounds (or a round with no merges) the remaining
// unmatched vertices become singletons. The resulting clustering — and
// therefore the whole coarse ladder — depends only on (hypergraph,
// options, RNG stream), never on worker count or chunk scheduling.
func clusterRounds(ctx bisectCtx, h *hypergraph.Hypergraph, fixedSide []int8, fixedCap [2]float64,
	opts Options, r *rng.RNG, s *scratch, rg *rung) int {

	numV := h.NumVertices()
	cmap := unclusteredKeys(rg, numV)
	m, boundW := newMergeRule(h, fixedSide, fixedCap, opts)
	clusters := s.clusters[:0]
	netInc := computeNetInc(h, opts, s)

	order := mlpart.Grow(s.perm, numV)
	r.PermInto(order)
	s.prop = mlpart.Grow(s.prop, numV)

	cr := &s.cl
	*cr = clusterRound{
		mergeRule: m,
		netInc:    netInc,
		cmap:      cmap,
		prop:      s.prop,
		chunk:     opts.parallelChunk(),
	}
	rj := &s.rj
	*rj = roundJob{nchunks: chunkCount(numV, cr.chunk), op: roundCluster, cl: cr}

	for round := 0; round < coarsenRounds; round++ {
		// One draw per round from the level's stream. Nothing reads it
		// any more, but dropping it would shift every later draw of the
		// stream and with it every partition.
		r.Uint64()
		cr.clusters = clusters
		cr.boundW = boundW
		rsp := ctx.tk.Begin("hgpart", "coarsen.round").
			Arg("round", int64(round)).Arg("vertices", int64(numV))
		runRound(ctx.call, s, rj)

		// Phase B: apply proposals in permutation order against the live
		// state. Feasibility is rechecked because earlier applications
		// this round may have filled a cluster or a fixed side's budget.
		merges := 0
		for _, v := range order {
			if cmap[v] < numV {
				continue
			}
			key := cr.prop[v]
			if key < 0 {
				continue
			}
			if key >= numV {
				key = cmap[key-numV] // follow the partner into its new cluster, if any
			}
			wv, sv := h.VertexWeight(v), fixedSide[v]
			bindSide, bindW, ok := m.check(key, wv, sv, clusters, &boundW)
			if !ok {
				continue
			}
			if bindSide >= 0 {
				boundW[bindSide] += bindW
			}
			clusters = m.join(cmap, clusters, v, key, wv, sv)
			merges++
		}
		rsp.Arg("merges", int64(merges)).End()
		ctx.sc.addCoarsenRound()
		if merges == 0 {
			break
		}
	}

	// Leftovers become singleton clusters, in permutation order like the
	// serial kernel's no-candidate case.
	for _, v := range order {
		if cmap[v] >= numV {
			cmap[v] = len(clusters)
			clusters = append(clusters, clusterMeta{w: h.VertexWeight(v), side: fixedSide[v]})
		}
	}
	s.clusters, s.perm = clusters, order
	return len(clusters)
}

// contract builds the coarse hypergraph induced by cmap and returns it
// together with the compact pin count: the pins remaining after
// single-pin nets are dropped and identical nets are merged. Both
// reductions are exact for the connectivity−1 cutsize — a single-pin
// net can never be cut, and a set of nets with identical pin lists has
// identical λ under every partition, so one net carrying the summed
// cost contributes exactly Σc·(λ−1). Detection is deterministic: coarse
// pin lists are sorted, hashed, and probed in net order through an
// open-addressed table, with full pin-list comparison on collision.
//
// All intermediate state (flat candidate pin storage, the hash table,
// the dedup marks) lives in the scratch arena, and the coarse
// hypergraph is written into dst, the next rung of the ladder: a warm
// arena contracts without allocating. The result stays valid until the
// next bisection on this arena rewrites the rung.
func contract(h *hypergraph.Hypergraph, cmap []int, numC int, s *scratch, dst *arenaHG) (*hypergraph.Hypergraph, int) {
	numN := h.NumNets()
	mark := mlpart.Grow(s.mark, numC)
	for i := range mark {
		mark[i] = -1
	}

	// Phase 1: materialize candidate coarse nets (pins deduplicated
	// within each net, then sorted) into flat storage.
	cpins := s.cpins[:0]
	cxp := s.cxpins[:0]
	ccost := s.ccost[:0]
	cxp = append(cxp, 0)
	for net := 0; net < numN; net++ {
		start := len(cpins)
		for _, v := range h.Pins(net) {
			c := cmap[v]
			if mark[c] != net {
				mark[c] = net
				cpins = append(cpins, c)
			}
		}
		slices.Sort(cpins[start:])
		cxp = append(cxp, len(cpins))
		ccost = append(ccost, h.NetCost(net))
	}
	nCand := len(ccost)

	// Phase 2: identical-net detection. Runs regardless of
	// compressCoarseNets so the compact pin count (and with it the
	// coarsening ladder) is invariant to the test hook; costs are only
	// folded when compression is live.
	tabSize := 4
	for tabSize < 2*nCand {
		tabSize *= 2
	}
	htab := mlpart.Grow(s.htab, tabSize)
	for i := range htab {
		htab[i] = 0
	}
	mask := tabSize - 1
	ckeep := s.ckeep[:0]
	compactPins := 0
	for i := 0; i < nCand; i++ {
		ps := cpins[cxp[i]:cxp[i+1]]
		if len(ps) < 2 {
			continue // single-pin net: never counted, merged, or (when compressing) kept
		}
		slot := int(hashPins(ps) & uint64(mask))
		for {
			e := htab[slot]
			if e == 0 {
				htab[slot] = i + 1
				ckeep = append(ckeep, i)
				compactPins += len(ps)
				break
			}
			j := e - 1
			if slices.Equal(cpins[cxp[j]:cxp[j+1]], ps) {
				if compressCoarseNets {
					ccost[j] += ccost[i]
				}
				break
			}
			slot = (slot + 1) & mask
		}
	}

	// Phase 3: freeze the kept nets into dst's arrays.
	keep := ckeep
	if !compressCoarseNets {
		keep = keep[:0]
		for i := 0; i < nCand; i++ {
			if cxp[i+1] > cxp[i] {
				keep = append(keep, i)
			}
		}
	}
	totalPins := 0
	for _, i := range keep {
		totalPins += cxp[i+1] - cxp[i]
	}
	vw := mlpart.Grow(dst.vw, numC)
	clear(vw)
	for v, c := range cmap {
		vw[c] += h.VertexWeight(v)
	}
	xpins := mlpart.Grow(dst.xpins, len(keep)+1)
	pins := mlpart.Grow(dst.pins, totalPins)
	cost := mlpart.Grow(dst.cost, len(keep))
	pos := 0
	for newNet, i := range keep {
		xpins[newNet] = pos
		pos += copy(pins[pos:], cpins[cxp[i]:cxp[i+1]])
		cost[newNet] = ccost[i]
	}
	xpins[len(keep)] = pos

	s.mark, s.htab = mark, htab
	s.cpins, s.cxpins, s.ccost, s.ckeep = cpins, cxp, ccost, ckeep
	dst.vw, dst.xpins, dst.pins, dst.cost = vw, xpins, pins, cost
	return dst.freeze(), compactPins
}

// hashPins mixes a sorted pin list through splitmix64 steps, one per
// element, seeded with the length. One multiply-xor chain per pin is
// considerably cheaper than byte-at-a-time FNV on the contraction path.
func hashPins(a []int) uint64 {
	h := uint64(len(a))*0x9e3779b97f4a7c15 + 0x1d8e4e27c47d124f
	for _, x := range a {
		z := uint64(x) + 0x9e3779b97f4a7c15 + h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}
