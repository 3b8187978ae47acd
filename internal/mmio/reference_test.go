package mmio

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// referenceRead is the oracle for the shared entry loop: a line-by-line
// Matrix Market parser built on strings.Fields, strconv and
// COO.ToCSR, sharing no parsing code with Read or ReadCSRStream. It
// assumes well-formed input.
func referenceRead(t *testing.T, text string) *sparse.CSR {
	t.Helper()
	lines := strings.Split(text, "\n")
	banner := strings.Fields(strings.ToLower(lines[0]))
	field, symmetry := banner[3], banner[4]
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return n
	}
	var coo *sparse.COO
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "%") {
			continue
		}
		if coo == nil {
			coo = sparse.NewCOO(atoi(f[0]), atoi(f[1]))
			continue
		}
		i, j, v := atoi(f[0])-1, atoi(f[1])-1, 1.0
		if field != "pattern" {
			var err error
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				t.Fatalf("reference: %v", err)
			}
		}
		coo.Add(i, j, v)
		if i != j && symmetry == "symmetric" {
			coo.Add(j, i, v)
		}
		if i != j && symmetry == "skew-symmetric" {
			coo.Add(j, i, -v)
		}
	}
	return coo.ToCSR()
}

// referenceEntry is one coordinate line of a generated input.
type referenceEntry struct {
	i, j int
	v    string
}

// referenceInput renders a 9×9 coordinate file of the given field and
// symmetry. Entries lie in the lower triangle for symmetric variants,
// include explicit zeros, optionally repeat coordinates, and are
// emitted in the named order with comment and blank lines between them.
func referenceInput(field, symmetry, order string, dups bool, seed uint64) string {
	const n = 9
	r := rng.New(seed)
	values := []string{"0", "1.5", "-2", "0.125", "3e-2", "-1.25E+3", "0.1", "1234567.890123", "-0"}
	var es []referenceEntry
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if (symmetry != "general" && j > i) || (symmetry == "skew-symmetric" && j == i) || r.Intn(3) != 0 {
				continue
			}
			v := values[r.Intn(len(values))]
			if field == "integer" {
				v = strconv.Itoa(r.Intn(21) - 10)
			}
			es = append(es, referenceEntry{i, j, v})
			if dups && r.Intn(4) == 0 {
				es = append(es, referenceEntry{i, j, v})
			}
		}
	}
	switch order {
	case "col-sorted":
		slices.SortStableFunc(es, func(a, b referenceEntry) int {
			if a.j != b.j {
				return a.j - b.j
			}
			return a.i - b.i
		})
	case "shuffled":
		shuffled := make([]referenceEntry, len(es))
		for k, p := range r.Perm(len(es)) {
			shuffled[k] = es[p]
		}
		es = shuffled
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate %s %s\n%% banner comment\n%d %d %d\n", field, symmetry, n, n, len(es))
	for k, e := range es {
		if k%5 == 2 {
			b.WriteString("% between entries\n\n")
		}
		if field == "pattern" {
			fmt.Fprintf(&b, "%d %d\n", e.i, e.j)
		} else {
			fmt.Fprintf(&b, "%d\t%d  %s\r\n", e.i, e.j, e.v)
		}
	}
	return b.String()
}

// TestReadMatchesReference checks both entry points against the
// reference parser over every field and symmetry, in row-sorted,
// column-sorted and shuffled order, with and without duplicate
// coordinates: the same compiled matrix, the same content hash, and
// the canonical fast path taken exactly for row-sorted general input
// without duplicates.
func TestReadMatchesReference(t *testing.T) {
	seed := uint64(1)
	for _, field := range []string{"real", "double", "integer", "pattern"} {
		for _, symmetry := range []string{"general", "symmetric", "skew-symmetric"} {
			for _, order := range []string{"row-sorted", "col-sorted", "shuffled"} {
				for _, dups := range []bool{false, true} {
					seed++
					name := fmt.Sprintf("%s/%s/%s/dups=%v", field, symmetry, order, dups)
					text := referenceInput(field, symmetry, order, dups, seed)
					t.Run(name, func(t *testing.T) {
						want := referenceRead(t, text).ContentHash()
						m, err := Read(strings.NewReader(text))
						if err != nil {
							t.Fatalf("Read: %v", err)
						}
						if err := m.Validate(); err != nil {
							t.Fatalf("Read: %v", err)
						}
						if m.ContentHash() != want {
							t.Error("Read differs from the reference parser")
						}
						s, info, err := ReadCSRStream(strings.NewReader(text), StreamOptions{})
						if err != nil {
							t.Fatalf("ReadCSRStream: %v", err)
						}
						if s.ContentHash() != want || !info.HashDone || info.Sum != want {
							t.Error("ReadCSRStream differs from the reference parser")
						}
						if canon := symmetry == "general" && order == "row-sorted" && !dups; info.Canonical != canon {
							t.Errorf("canonical = %v, want %v", info.Canonical, canon)
						}
					})
				}
			}
		}
	}
}
