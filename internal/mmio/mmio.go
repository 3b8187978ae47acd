// Package mmio reads and writes sparse matrices in the Matrix Market
// exchange format (the format the paper's test matrices are distributed
// in). Supported variants: "matrix coordinate" with field real, integer
// or pattern, and symmetry general, symmetric or skew-symmetric.
// Pattern entries get value 1. Symmetric storage is expanded to full
// general storage on read.
//
// Read and ReadCSRStream share one entry loop: the same bounds checks,
// comment-line cap, symmetric mirroring and canonical-order fast path.
// ReadCSRStream adds gzip sniffing and the canonical content hash that
// the serving pipeline keys uploads by.
package mmio

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"finegrain/internal/sparse"
)

// ErrFormat reports a malformed Matrix Market stream.
var ErrFormat = errors.New("mmio: malformed Matrix Market input")

type header struct {
	object   string
	format   string
	field    string
	symmetry string
}

// newScanner wraps r in the parser's standard line scanner: 64 KiB
// initial buffer, 4 MiB line cap.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return sc
}

// maxSkipLines bounds blank and comment lines, before the size line and
// between entries. A small gzip body can decompress to an endless
// comment section; the cap turns that into ErrFormat instead of an
// unbounded scan.
const maxSkipLines = 1 << 20

// readPreamble parses the banner, skips comments, and reads the size
// line, applying the adversarial-header bounds.
func readPreamble(sc *bufio.Scanner) (h header, rows, cols, nnz int, err error) {
	if !sc.Scan() {
		return h, 0, 0, 0, fmt.Errorf("%w: empty input", ErrFormat)
	}
	if h, err = parseHeader(sc.Text()); err != nil {
		return h, 0, 0, 0, err
	}
	if h.object != "matrix" {
		return h, 0, 0, 0, fmt.Errorf("%w: unsupported object %q", ErrFormat, h.object)
	}
	if h.format != "coordinate" {
		return h, 0, 0, 0, fmt.Errorf("%w: only coordinate format supported, got %q", ErrFormat, h.format)
	}
	switch h.field {
	case "real", "integer", "pattern", "double":
	default:
		return h, 0, 0, 0, fmt.Errorf("%w: unsupported field %q", ErrFormat, h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return h, 0, 0, 0, fmt.Errorf("%w: unsupported symmetry %q", ErrFormat, h.symmetry)
	}

	// Skip comments, read the size line.
	for skipped := 0; ; skipped++ {
		if skipped > maxSkipLines {
			return h, 0, 0, 0, fmt.Errorf("%w: more than %d comment lines before the size line", ErrFormat, maxSkipLines)
		}
		if !sc.Scan() {
			return h, 0, 0, 0, fmt.Errorf("%w: missing size line", ErrFormat)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return h, 0, 0, 0, fmt.Errorf("%w: size line %q", ErrFormat, line)
		}
		var errs [3]error
		rows, errs[0] = strconv.Atoi(fields[0])
		cols, errs[1] = strconv.Atoi(fields[1])
		nnz, errs[2] = strconv.Atoi(fields[2])
		for _, e := range errs {
			if e != nil {
				return h, 0, 0, 0, fmt.Errorf("%w: size line %q: %v", ErrFormat, line, e)
			}
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return h, 0, 0, 0, fmt.Errorf("%w: negative size", ErrFormat)
	}
	// Bound the header against adversarial inputs. Atoi accepts anything
	// up to MaxInt64, and downstream arithmetic on such values wraps:
	// 2*nnz for the symmetric capacity hint goes negative (make panics on
	// a negative cap), and ToCSR's make([]int, rows+1) overflows to
	// MinInt64. maxDim keeps rows+1 and rows*cols-style products safe;
	// maxNNZ keeps 2*nnz safe and is far beyond any file a scanner could
	// actually deliver.
	const (
		maxDim = 1 << 31
		maxNNZ = 1 << 33
	)
	if rows > maxDim || cols > maxDim {
		return h, 0, 0, 0, fmt.Errorf("%w: dimensions %dx%d exceed limit %d", ErrFormat, rows, cols, maxDim)
	}
	if nnz > maxNNZ {
		return h, 0, 0, 0, fmt.Errorf("%w: nnz %d exceeds limit %d", ErrFormat, nnz, maxNNZ)
	}
	// Mirroring (i,j) to (j,i) needs a square matrix; the format only
	// defines symmetric storage for square ones.
	if h.symmetry != "general" && rows != cols {
		return h, 0, 0, 0, fmt.Errorf("%w: %s matrix is %dx%d, not square", ErrFormat, h.symmetry, rows, cols)
	}
	return h, rows, cols, nnz, nil
}

// Read parses a Matrix Market stream into a CSR matrix. It runs
// ReadCSRStream's entry loop, without the gzip sniff and without the
// content hash: ReadFile decompresses by file suffix, and callers that
// need the hash use ReadCSRStream.
func Read(r io.Reader) (*sparse.CSR, error) {
	m, _, err := readCSR(newScanner(r), StreamOptions{}, false)
	return m, err
}

// skipSpace advances pos past blanks. \r handles CRLF files, which are
// common in Matrix Market archives.
func skipSpace(b []byte, pos int) int {
	for pos < len(b) && (b[pos] == ' ' || b[pos] == '\t' || b[pos] == '\r') {
		pos++
	}
	return pos
}

// parseIntBytes parses one whitespace-delimited decimal integer starting
// at pos and returns the value and the position after it.
func parseIntBytes(b []byte, pos int) (int, int, bool) {
	pos = skipSpace(b, pos)
	neg := false
	if pos < len(b) && (b[pos] == '+' || b[pos] == '-') {
		neg = b[pos] == '-'
		pos++
	}
	start := pos
	n := 0
	for pos < len(b) && b[pos] >= '0' && b[pos] <= '9' {
		d := int(b[pos] - '0')
		if n > (1<<62)/10 {
			return 0, pos, false
		}
		n = n*10 + d
		pos++
	}
	if pos == start {
		return 0, pos, false
	}
	if pos < len(b) && b[pos] != ' ' && b[pos] != '\t' && b[pos] != '\r' {
		return 0, pos, false
	}
	if neg {
		n = -n
	}
	return n, pos, true
}

// pow10tab holds the exactly representable powers of ten (10^22 is the
// largest float64 power of ten with no rounding error).
var pow10tab = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloatBytes parses one whitespace-delimited float starting at pos.
// Plain decimals whose mantissa fits in 53 bits and whose fractional
// length is at most 22 digits take the exact Clinger fast path — a
// single division of two exactly representable doubles is correctly
// rounded, so the result is bit-identical to strconv.ParseFloat.
// Everything else (exponents, long mantissas, inf/nan) falls back to
// strconv on the field's bytes.
func parseFloatBytes(b []byte, pos int) (float64, bool) {
	pos = skipSpace(b, pos)
	start := pos
	neg := false
	if pos < len(b) && (b[pos] == '+' || b[pos] == '-') {
		neg = b[pos] == '-'
		pos++
	}
	var mant uint64
	digits := 0
	frac := 0
	ok := true
	for pos < len(b) && b[pos] >= '0' && b[pos] <= '9' {
		mant = mant*10 + uint64(b[pos]-'0')
		digits++
		pos++
	}
	if pos < len(b) && b[pos] == '.' {
		pos++
		for pos < len(b) && b[pos] >= '0' && b[pos] <= '9' {
			mant = mant*10 + uint64(b[pos]-'0')
			digits++
			frac++
			pos++
		}
	}
	if digits == 0 || digits > 19 || mant > 1<<53 || frac >= len(pow10tab) {
		ok = false
	}
	if pos < len(b) && b[pos] != ' ' && b[pos] != '\t' && b[pos] != '\r' {
		ok = false // exponent or other suffix: find the field end and fall back
		for pos < len(b) && b[pos] != ' ' && b[pos] != '\t' && b[pos] != '\r' {
			pos++
		}
	}
	if pos == start {
		return 0, false
	}
	if !ok {
		v, err := strconv.ParseFloat(string(b[start:pos]), 64)
		return v, err == nil
	}
	v := float64(mant) / pow10tab[frac]
	if neg {
		v = -v
	}
	return v, true
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("%w: header %q", ErrFormat, line)
	}
	return header{object: fields[1], format: fields[2], field: fields[3], symmetry: fields[4]}, nil
}

// Write emits m as a general real coordinate Matrix Market stream.
func Write(w io.Writer, m *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFile reads a Matrix Market file from disk. Paths ending in .gz
// are decompressed transparently, so on-disk corpora can stay gzipped
// (*.mtx.gz is how large Matrix Market collections ship).
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("mmio: %s: %w", path, err)
		}
		defer gz.Close()
		return Read(gz)
	}
	return Read(f)
}

// WriteFile writes m to path as a general real coordinate file,
// gzip-compressed when the path ends in .gz.
func WriteFile(path string, m *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		if err := Write(gz, m); err != nil {
			gz.Close()
			f.Close()
			return err
		}
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
