package mlpart

// Balance repairs residual imbalance of a K-way partition that
// recursive bisection can leave behind when heavy vertices concentrate
// in one branch (per-bisection balance is blind to leaf granularity).
// parts[v] is vertex v's part in [0, k) and is updated in place; vw
// holds the vertex weights. fixed[v] ≥ 0 pins vertex v (a nil fixed
// pins nothing), and zero-weight vertices never move either.
//
// It greedily moves vertices out of over-capacity parts into the
// lightest parts, choosing, among the moves that fit, the one with the
// smallest objective increase delta(v, from, to), computed against the
// current parts. Two escapes handle the dense-row granularity case
// where every movable vertex outweighs the cap slack: a receiver may
// exceed the cap while staying strictly below the sender (monotone
// Σ W_k² descent), and when even that fails, the receiver first sheds
// light vertices to third parts to make room.
func Balance(k int, parts, vw, fixed []int, eps float64, delta func(v, from, to int) int) {
	if k < 2 {
		return
	}
	weights := make([]int, k)
	total := 0
	for v, part := range parts {
		weights[part] += vw[v]
		total += vw[v]
	}
	cap := float64(total) / float64(k) * (1 + eps)

	byPart := make([][]int, k)
	for v, part := range parts {
		byPart[part] = append(byPart[part], v)
	}
	movable := func(v, part int) bool {
		return parts[v] == part && vw[v] > 0 && (fixed == nil || fixed[v] < 0)
	}

	const maxCandidates = 4096
	doMove := func(v, from, to int) {
		parts[v] = to
		weights[from] -= vw[v]
		weights[to] += vw[v]
		byPart[to] = append(byPart[to], v)
	}
	// bestMove picks the cheapest movable vertex of part `from` with
	// weight ≤ room.
	bestMove := func(from, to int, room float64) int {
		bestV, bestDelta, bestW := -1, 0, 0
		scanned := 0
		for _, v := range byPart[from] {
			if !movable(v, from) {
				continue
			}
			wv := vw[v]
			if float64(wv) > room {
				continue
			}
			scanned++
			d := delta(v, from, to)
			if bestV < 0 || d < bestDelta || (d == bestDelta && wv > bestW) {
				bestV, bestDelta, bestW = v, d, wv
			}
			if scanned >= maxCandidates {
				break
			}
		}
		return bestV
	}

	// bestSwap finds v ∈ from, u ∈ to with w(u) < w(v) and the receiver
	// staying strictly below the sender's old weight, minimizing the
	// combined delta.
	bestSwap := func(from, to int) (int, int) {
		limit := float64(weights[from]-1) - float64(weights[to])
		bestV, bestU, bestDelta := -1, -1, 0
		scanned := 0
		for _, v := range byPart[from] {
			if !movable(v, from) {
				continue
			}
			wv := vw[v]
			for _, u := range byPart[to] {
				if !movable(u, to) {
					continue
				}
				wu := vw[u]
				if wu >= wv || float64(wv-wu) > limit {
					continue
				}
				scanned++
				d := delta(v, from, to) + delta(u, to, from)
				if bestV < 0 || d < bestDelta {
					bestV, bestU, bestDelta = v, u, d
				}
				if scanned >= maxCandidates {
					return bestV, bestU
				}
			}
		}
		return bestV, bestU
	}

	budget := 8192
	for budget > 0 {
		budget--
		from, to := -1, 0
		for part := 0; part < k; part++ {
			if float64(weights[part]) > cap && (from < 0 || weights[part] > weights[from]) {
				from = part
			}
			if weights[part] < weights[to] {
				to = part
			}
		}
		if from < 0 || from == to {
			return
		}
		room := cap - float64(weights[to])
		if r2 := float64(weights[from]-1) - float64(weights[to]); r2 > room {
			room = r2
		}
		if v := bestMove(from, to, room); v >= 0 {
			doMove(v, from, to)
			continue
		}
		// Swap fallback: when both parts consist of heavy vertices
		// (segregated dense rows), exchanging a heavier sender vertex
		// for a lighter receiver vertex strictly lowers the sender
		// without pushing the receiver past it.
		if v, u := bestSwap(from, to); v >= 0 {
			doMove(v, from, to)
			doMove(u, to, from)
			continue
		}
		// Granularity escape: every movable vertex of `from` outweighs
		// the room. Shed light vertices from the receiver into other
		// under-cap parts until the lightest movable vertex fits.
		minW := -1
		for _, v := range byPart[from] {
			if movable(v, from) {
				if w := vw[v]; minW < 0 || w < minW {
					minW = w
				}
			}
		}
		if minW < 0 {
			return
		}
		made := false
		for float64(weights[from]-1)-float64(weights[to]) < float64(minW) && budget > 0 {
			budget--
			// Lightest under-cap third part.
			q := -1
			for part := 0; part < k; part++ {
				if part == from || part == to {
					continue
				}
				if q < 0 || weights[part] < weights[q] {
					q = part
				}
			}
			if q < 0 {
				return
			}
			v := bestMove(to, q, cap-float64(weights[q]))
			if v < 0 {
				return
			}
			doMove(v, to, q)
			made = true
		}
		if !made {
			return
		}
	}
}
