package mmio

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

func TestReadGeneralReal(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.5
2 3 -1
3 1 4
3 3 1e2
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	if m.At(0, 0) != 2.5 || m.At(1, 2) != -1 || m.At(2, 0) != 4 || m.At(2, 2) != 100 {
		t.Fatal("values wrong")
	}
}

func TestReadPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Fatal("pattern entries should read 1")
	}
}

func TestReadSymmetricExpands(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 5\n2 1 2\n3 2 7\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5 (diagonal not duplicated)", m.NNZ())
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 || m.At(1, 2) != 7 || m.At(2, 1) != 7 {
		t.Fatal("symmetric expansion wrong")
	}
	if !m.IsStructurallySymmetric() {
		t.Fatal("expanded matrix not symmetric")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != -3 {
		t.Fatal("skew-symmetric expansion wrong")
	}
}

func TestReadIntegerField(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 7 {
		t.Fatal("integer value wrong")
	}
}

func TestReadHeaderCaseInsensitive(t *testing.T) {
	in := "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 1\n"
	if _, err := Read(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
}

func TestReadMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bad header":        "%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n",
		"bad object":        "%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1\n",
		"array format":      "%%MatrixMarket matrix array real general\n1 1\n1\n",
		"complex field":     "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"hermitian":         "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"missing size":      "%%MatrixMarket matrix coordinate real general\n",
		"bad size line":     "%%MatrixMarket matrix coordinate real general\n1 1\n",
		"non-numeric size":  "%%MatrixMarket matrix coordinate real general\na b c\n",
		"negative size":     "%%MatrixMarket matrix coordinate real general\n-1 1 0\n",
		"too few entries":   "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"row out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"col out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1\n",
		"bad value":         "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 x\n",
		"bad row index":     "%%MatrixMarket matrix coordinate real general\n1 1 1\nx 1 1\n",
		"truncated pattern": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
		// Mirroring (2,1) to (1,2) would fall outside a 2×1 matrix.
		"non-square symmetric": "%%MatrixMarket matrix coordinate pattern symmetric\n2 1 1\n2 1\n",
	}
	for name, in := range adversarialHeaders {
		cases[name] = in
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error %v is not ErrFormat", name, err)
		}
	}
}

// adversarialHeaders hold size lines that parse as valid ints but whose
// downstream arithmetic would wrap without the header bounds: 2*nnz for
// the symmetric capacity hint goes negative (make panics), and ToCSR's
// rows+1 overflows to MinInt64. Each must fail with ErrFormat, not
// panic or attempt a giant allocation.
var adversarialHeaders = map[string]string{
	"symmetric nnz MaxInt64": "%%MatrixMarket matrix coordinate real symmetric\n2 2 9223372036854775807\n1 1 1\n",
	"dims MaxInt64":          "%%MatrixMarket matrix coordinate real general\n9223372036854775807 9223372036854775807 1\n1 1 1\n",
	"nnz 2^62":               "%%MatrixMarket matrix coordinate real general\n2 2 4611686018427387904\n1 1 1\n",
	"rows just over limit":   "%%MatrixMarket matrix coordinate real general\n2147483649 2 1\n1 1 1\n",
}

// TestAdversarialHeaderPrealloc checks that a fabricated nnz below the
// hard limit still can't commit an oversized preallocation: the parser
// must fail on the short entry stream after capping the hint, not OOM.
func TestAdversarialHeaderPrealloc(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1000000 1000000 8000000000\n1 1 1\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected error for short entry stream")
	}
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("error %v is not ErrFormat", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(20), 1+r.Intn(20)
		coo := sparse.NewCOO(rows, cols)
		for k := 0; k < r.Intn(80); k++ {
			coo.Add(r.Intn(rows), r.Intn(cols), r.Float64()*100-50)
		}
		m := coo.ToCSR()
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return m.Equal(back)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWritePatternRoundTrip reads m's structure back from pattern
// Matrix Market text: the entries survive and every value reads as 1.
func TestWritePatternRoundTrip(t *testing.T) {
	m := sparse.FromEntries(3, 3, []sparse.Entry{{Row: 0, Col: 1, Val: 9}, {Row: 2, Col: 2, Val: -4}})
	pattern := "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n3 3\n"
	back, err := Read(strings.NewReader(pattern))
	if err != nil {
		t.Fatal(err)
	}
	if !m.PatternEqual(back) {
		t.Fatal("pattern round trip changed structure")
	}
	if back.At(0, 1) != 1 {
		t.Fatal("pattern values should be 1")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	m := sparse.FromEntries(2, 2, []sparse.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 2}})
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Fatal("file round trip changed matrix")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.mtx")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestWriteFileBadDir(t *testing.T) {
	m := sparse.Identity(2)
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "m.mtx"), m); err == nil {
		t.Fatal("expected error for unwritable path")
	}
}

func TestReadDuplicatesMerged(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2\n1 1 3\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1 || m.At(0, 0) != 5 {
		t.Fatalf("duplicates not merged: nnz=%d v=%v", m.NNZ(), m.At(0, 0))
	}
}
