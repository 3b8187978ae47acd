package hgpart

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"testing"

	"finegrain/internal/core"
	"finegrain/internal/hypergraph"
	"finegrain/internal/matgen"
)

// roundPathDigests pins the Parts arrays of fine-grain partitions that
// run hgpart's synchronous-round coarsening and FM (clusterRounds,
// fmParallelRefine). "top" is ken-11 at scale 0.3 (29,076 vertices),
// whose first two recursion levels start above defaultParallelThreshold,
// so the default options reach the round path; "small" is ken-11 at scale 0.02 with parallelThreshold
// lowered to 64, so every level of the ladder runs it, once free and
// once with every ninth vertex fixed. A change meant to keep partitions
// byte-identical must leave every digest untouched, at every worker
// count.
var roundPathDigests = map[string]string{
	"top":         "10afdbe84fa1e75edfb7a4c14d173f466cec3479cea3973e038216b2597a78ad",
	"small":       "b19c66b52eb614c0e15721f8d5138b30330c9ec5a90b67d12dcd75a327550483",
	"small-fixed": "e63c0c0394b88e8e52be7c9423be4bb85a908ac17aa54bbc7697d0145c7fcb61",
}

// fineGrainFixture builds the fine-grain hypergraph of a catalog matrix
// at the given scale. FNV-1a of the name is the matrix seed
// cmd/experiments uses.
func fineGrainFixture(t testing.TB, name string, scale float64) *hypergraph.Hypergraph {
	t.Helper()
	spec, err := matgen.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	seed := fnv.New64a()
	seed.Write([]byte(spec.Name))
	m, err := core.BuildFineGrain(spec.Scaled(scale).Generate(seed.Sum64()))
	if err != nil {
		t.Fatal(err)
	}
	return m.H
}

// partsDigest hashes a Parts array, each entry as a little-endian
// 64-bit word.
func partsDigest(parts []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenRoundPath is the digest guard of the round path, which the
// root goldens reach on one level only.
func TestGoldenRoundPath(t *testing.T) {
	top := fineGrainFixture(t, "ken-11", 0.3)
	if top.NumVertices() < defaultParallelThreshold {
		t.Fatalf("top fixture has %d vertices, below the parallel threshold %d",
			top.NumVertices(), defaultParallelThreshold)
	}
	small := fineGrainFixture(t, "ken-11", 0.02)
	fixed := make([]int, small.NumVertices())
	for v := range fixed {
		fixed[v] = -1
		if v%9 == 0 {
			fixed[v] = v % 8
		}
	}
	cases := []struct {
		name      string
		h         *hypergraph.Hypergraph
		k         int
		fixed     []int
		threshold int
	}{
		{name: "top", h: top, k: 16},
		{name: "small", h: small, k: 8, threshold: 64},
		{name: "small-fixed", h: small, k: 8, fixed: fixed, threshold: 64},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Seed = 5
				opts.Workers = workers
				opts.parallelThreshold = tc.threshold
				p, err := PartitionFixed(tc.h, tc.k, tc.fixed, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := partsDigest(p.Parts), roundPathDigests[tc.name]; got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}
