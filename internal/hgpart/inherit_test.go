package hgpart

import (
	"fmt"
	"slices"
	"testing"

	"finegrain/internal/hypergraph"
	"finegrain/internal/rng"
)

// contractReference contracts h through the vertex map m onto numC
// coarse vertices the way contract's rules state it, with maps: each
// net's image is its set of coarse pins, sorted; images of fewer than
// two pins are dropped, and a repeated image adds its cost to the net
// that first had it.
func contractReference(h *hypergraph.Hypergraph, m []int, numC int) *hypergraph.Hypergraph {
	var images [][]int
	var costs []int
	first := map[string]int{}
	for n := 0; n < h.NumNets(); n++ {
		seen := map[int]bool{}
		var img []int
		for _, v := range h.Pins(n) {
			if c := m[v]; !seen[c] {
				seen[c] = true
				img = append(img, c)
			}
		}
		if len(img) < 2 {
			continue
		}
		slices.Sort(img)
		key := fmt.Sprint(img)
		if i, ok := first[key]; ok {
			costs[i] += h.NetCost(n)
			continue
		}
		first[key] = len(images)
		images = append(images, img)
		costs = append(costs, h.NetCost(n))
	}
	b := hypergraph.NewBuilder(numC, len(images))
	w := make([]int, numC)
	for v := 0; v < h.NumVertices(); v++ {
		w[m[v]] += h.VertexWeight(v)
	}
	for c, wc := range w {
		b.SetVertexWeight(c, wc)
	}
	for n, img := range images {
		for _, c := range img {
			b.AddPin(n, c)
		}
		b.SetNetCost(n, costs[n])
	}
	return b.Build()
}

// TestInheritedLadderIsRestriction checks inheritLadder on random
// hypergraphs and random bisections of them. For each side and each
// inherited level ℓ+1, with every child vertex followed down from level
// 0 through the child's maps and the parent's:
//
//   - every inherited cluster lies within one parent cluster (and, being
//     built from one side's vertices, on that side), and no parent
//     cluster becomes two clusters on one side;
//   - each inherited cluster has as many level-0 vertices as its parent
//     cluster has on the side, and the level's vertex count is the
//     number of parent clusters the side reaches;
//   - the child level coarsen builds by contracting through the
//     inherited maps equals contractReference of the child's
//     hypergraph through a map-based numbering of the same clusters:
//     level 0 in ascending vertex order, each coarser level in the
//     order the finer child level first reaches it.
func TestInheritedLadderIsRestriction(t *testing.T) {
	r := rng.New(91)
	opts := DefaultOptions()
	opts.coarsenTo = 6
	opts.normalize()
	noCap := [2]float64{1e18, 1e18}
	checked := 0
	for c := 0; c < 30; c++ {
		numV, numN := 200+r.Intn(500), 150+r.Intn(400)
		b := hypergraph.NewBuilder(numV, numN)
		for n := 0; n < numN; n++ {
			for i := 0; i < 2+r.Intn(5); i++ {
				b.AddPin(n, r.Intn(numV))
			}
			b.SetNetCost(n, 1+r.Intn(3))
		}
		for v := 0; v < numV; v++ {
			b.SetVertexWeight(v, 1+r.Intn(3))
		}
		h := b.Build()
		free := make([]int8, numV)
		side := make([]int8, numV)
		ids := make([]int, numV)
		bias := 1 + r.Intn(4)
		for v := range free {
			free[v] = -1
			side[v] = int8(min(1, r.Intn(bias+1)))
			ids[v] = v
		}
		s := new(scratch)
		levels := coarsen(bisectCtx{}, h, free, noCap, nil, opts, r, s)
		for want := int8(0); want < 2; want++ {
			name := fmt.Sprintf("case %d side %d", c, want)
			dst := s.childAt(1, want)
			sub, _ := inducedSide(h, ids, side, want, s, dst)
			minC := 1 + r.Intn(2*opts.coarsenTo)
			inh := inheritLadder(levels, side, want, minC, s, &dst.inh)
			if len(inh.cmap) != len(inh.numC) {
				t.Fatalf("%s: %d maps, %d level sizes", name, len(inh.cmap), len(inh.numC))
			}

			// verts[i] is the parent vertex of child level-0 vertex i;
			// childAt and parentAt follow each down one level at a time.
			var verts []int
			for v, sd := range side {
				if sd == want {
					verts = append(verts, v)
				}
			}
			childAt := make([]int, len(verts))
			parentAt := slices.Clone(verts)
			for i := range childAt {
				childAt[i] = i
			}
			// refID numbers the parent's level-ℓ vertices the side reaches,
			// map-based; refOf lists them in that order.
			refOf := slices.Clone(verts)
			subFixed := make([]int8, sub.NumVertices())
			for i := range subFixed {
				subFixed[i] = -1
			}
			childLevels := coarsen(bisectCtx{}, sub, subFixed, noCap, inh, opts, r, new(scratch))
			for ell, cmap := range inh.cmap {
				numC := inh.numC[ell]
				if numC < minC {
					t.Fatalf("%s: level %d keeps %d vertices, below %d", name, ell+1, numC, minC)
				}
				if len(cmap) != len(refOf) {
					t.Fatalf("%s: level %d map has %d entries, want %d", name, ell, len(cmap), len(refOf))
				}
				refID := map[int]int{}
				var nextOf []int
				for _, p := range refOf {
					q := levels[ell].cmap[p]
					if _, ok := refID[q]; !ok {
						refID[q] = len(nextOf)
						nextOf = append(nextOf, q)
					}
				}
				refOf = nextOf

				owner := map[int]int{}   // child cluster → parent cluster
				members := map[int]int{} // child cluster → level-0 members
				for i := range childAt {
					childAt[i] = cmap[childAt[i]]
					parentAt[i] = levels[ell].cmap[parentAt[i]]
					cc, pc := childAt[i], parentAt[i]
					if cc < 0 || cc >= numC {
						t.Fatalf("%s: level %d cluster %d out of [0,%d)", name, ell+1, cc, numC)
					}
					if o, ok := owner[cc]; ok && o != pc {
						t.Fatalf("%s: level %d cluster %d spans parent clusters %d and %d", name, ell+1, cc, o, pc)
					}
					owner[cc] = pc
					members[cc]++
				}
				if len(owner) != numC || len(refOf) != numC {
					t.Fatalf("%s: level %d has %d clusters, reaches %d, want %d parent clusters",
						name, ell+1, numC, len(owner), len(refOf))
				}
				parentMembers := map[int]int{}
				for v, sd := range side {
					if sd != want {
						continue
					}
					p := v
					for l := 0; l <= ell; l++ {
						p = levels[l].cmap[p]
					}
					parentMembers[p]++
				}
				for cc, pc := range owner {
					if refID[pc] != cc {
						t.Fatalf("%s: level %d cluster %d is parent cluster %d, numbered %d by the reference",
							name, ell+1, cc, pc, refID[pc])
					}
					if members[cc] != parentMembers[pc] {
						t.Fatalf("%s: level %d cluster %d has %d vertices, parent cluster %d has %d on the side",
							name, ell+1, cc, members[cc], pc, parentMembers[pc])
					}
				}

				if ell+1 >= len(childLevels) {
					continue // the child's ladder stalled before this level
				}
				ref := contractReference(sub, childAt, numC)
				if err := hypergraph.Diff(childLevels[ell+1].h, ref); err != nil {
					t.Fatalf("%s: level %d: %v", name, ell+1, err)
				}
				checked++
			}
		}
	}
	t.Logf("compared %d inherited levels", checked)
	if checked < 30 {
		t.Fatalf("only %d inherited levels compared: fixtures too small", checked)
	}
}
