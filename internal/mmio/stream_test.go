package mmio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"finegrain/internal/sparse"
)

func mustCSR(t *testing.T, text string) *sparse.CSR {
	t.Helper()
	m, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const sortedGeneral = `%%MatrixMarket matrix coordinate real general
3 3 5
1 1 1.5
1 3 -2
2 2 4
3 1 0.25
3 3 9
`

const unsortedGeneral = `%%MatrixMarket matrix coordinate real general
3 3 5
3 3 9
1 1 1.5
3 1 0.25
2 2 4
1 3 -2
`

const symmetricPattern = `%%MatrixMarket matrix coordinate pattern symmetric
3 3 3
2 1
3 2
3 3
`

// TestReadCSRStreamMatchesRead checks the streaming reader produces the
// same matrix and the same canonical content hash as the buffered
// reader, on canonical, unsorted, and symmetric inputs alike.
func TestReadCSRStreamMatchesRead(t *testing.T) {
	cases := []struct {
		name, text    string
		wantCanonical bool
	}{
		{"sorted general", sortedGeneral, true},
		{"unsorted general", unsortedGeneral, false},
		{"symmetric pattern", symmetricPattern, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := mustCSR(t, tc.text)
			got, info, err := ReadCSRStream(strings.NewReader(tc.text), StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info.Canonical != tc.wantCanonical {
				t.Errorf("canonical = %v, want %v", info.Canonical, tc.wantCanonical)
			}
			if !info.HashDone || info.Sum != want.ContentHash() {
				t.Error("stream hash does not match the buffered matrix's ContentHash")
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("streamed matrix invalid: %v", err)
			}
			if !got.PatternEqual(want) {
				t.Fatal("streamed pattern differs from buffered read")
			}
			if got.ContentHash() != want.ContentHash() {
				t.Fatal("streamed content differs from buffered read")
			}
		})
	}
}

// TestReadCSRStreamGzipAware feeds the same body plain and gzipped; the
// reader must sniff the magic and produce identical matrices.
func TestReadCSRStreamGzipAware(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(sortedGeneral))
	zw.Close()

	plain, _, err := ReadCSRStream(strings.NewReader(sortedGeneral), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zipped, info, err := ReadCSRStream(&gz, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Canonical {
		t.Error("gzip body lost canonical detection")
	}
	if plain.ContentHash() != zipped.ContentHash() {
		t.Fatal("gzip and plain reads differ")
	}
}

// TestReadCSRStreamChunkBoundaries drips the body through readers that
// fragment tokens across Read calls; the scanner must reassemble them.
func TestReadCSRStreamChunkBoundaries(t *testing.T) {
	want := mustCSR(t, sortedGeneral)
	readers := map[string]io.Reader{
		"one byte":  iotest.OneByteReader(strings.NewReader(sortedGeneral)),
		"half":      iotest.HalfReader(strings.NewReader(sortedGeneral)),
		"data errs": iotest.DataErrReader(strings.NewReader(sortedGeneral)),
	}
	for name, r := range readers {
		got, _, err := ReadCSRStream(r, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.ContentHash() != want.ContentHash() {
			t.Fatalf("%s: content differs", name)
		}
	}
}

// TestReadCSRStreamHostileInput table-tests the failure modes the
// streaming path must reject without panicking or over-allocating:
// truncated bodies, hostile gzip, and limit violations.
func TestReadCSRStreamHostileInput(t *testing.T) {
	truncGz := func(s string, keep int) []byte {
		var b bytes.Buffer
		zw := gzip.NewWriter(&b)
		zw.Write([]byte(s))
		zw.Close()
		return b.Bytes()[:keep]
	}
	cases := []struct {
		name string
		body []byte
		opt  StreamOptions
	}{
		{"empty", nil, StreamOptions{}},
		{"truncated entries", []byte("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n"), StreamOptions{}},
		{"truncated mid-line", []byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2"), StreamOptions{}},
		{"gzip magic only", []byte{0x1f, 0x8b}, StreamOptions{}},
		{"truncated gzip", truncGz(sortedGeneral, 20), StreamOptions{}},
		{"gzip trailing garbage header", append([]byte{0x1f, 0x8b, 0xff, 0xff}, []byte(sortedGeneral)...), StreamOptions{}},
		{"nnz over limit", []byte("%%MatrixMarket matrix coordinate real general\n3 3 5\n"), StreamOptions{MaxNNZ: 4}},
		{"dims over limit", []byte("%%MatrixMarket matrix coordinate real general\n100 100 2\n1 1 1\n2 2 1\n"), StreamOptions{MaxNNZ: 50}},
		{"out of bounds entry", []byte("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"), StreamOptions{}},
		{"giant header", []byte("%%MatrixMarket matrix coordinate real general\n9223372036854775807 2 1\n1 1 1\n"), StreamOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _, err := ReadCSRStream(bytes.NewReader(tc.body), tc.opt)
			if err == nil {
				t.Fatalf("accepted hostile input (matrix %dx%d)", m.Rows, m.Cols)
			}
		})
	}
}

// TestReadCSRStreamEarlyHash checks the OnContentHash contract: for a
// canonical stream the callback fires with the final hash and can abort
// the read; its error is returned verbatim with no matrix.
func TestReadCSRStreamEarlyHash(t *testing.T) {
	want := mustCSR(t, sortedGeneral).ContentHash()

	stop := errors.New("duplicate")
	var got [32]byte
	m, info, err := ReadCSRStream(strings.NewReader(sortedGeneral), StreamOptions{
		OnContentHash: func(sum [32]byte) error { got = sum; return stop },
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if m != nil {
		t.Fatal("aborted read still returned a matrix")
	}
	if !info.HashDone || got != want || info.Sum != want {
		t.Fatal("callback hash does not match the canonical content hash")
	}

	// A nil return lets the read complete.
	m, _, err = ReadCSRStream(strings.NewReader(sortedGeneral), StreamOptions{
		OnContentHash: func([32]byte) error { return nil },
	})
	if err != nil || m == nil {
		t.Fatalf("non-aborting callback broke the read: %v", err)
	}

	// Non-canonical input still reaches the callback (after compilation).
	fired := false
	_, info, err = ReadCSRStream(strings.NewReader(unsortedGeneral), StreamOptions{
		OnContentHash: func(sum [32]byte) error { fired = sum == want; return nil },
	})
	if err != nil || !fired || info.Canonical {
		t.Fatalf("unsorted input: err=%v fired=%v canonical=%v", err, fired, info.Canonical)
	}
}

// trailingProbe declares one entry but carries a second one and a
// garbage line after it.
const trailingProbe = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 5\ngarbage\n"

// TestReadRejectsTrailingContent: the body ends with the header's entry
// count. Blank and comment lines may follow; an extra entry or any other
// line is ErrFormat, through Read and ReadCSRStream, plain and gzipped,
// and a rejected stream never reaches OnContentHash.
func TestReadRejectsTrailingContent(t *testing.T) {
	const head = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n"
	gz := func(s string) []byte {
		var b bytes.Buffer
		zw := gzip.NewWriter(&b)
		zw.Write([]byte(s))
		zw.Close()
		return b.Bytes()
	}
	cases := []struct {
		name, body string
		ok         bool
	}{
		{"probe", trailingProbe, false},
		{"extra entry", head + "2 2 5\n", false},
		{"garbage", head + "garbage", false},
		{"trailing comments and blanks", head + "\n% done\n  \r\n", true},
	}
	for _, tc := range cases {
		check := func(path string, err error) {
			t.Helper()
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s/%s: %v", tc.name, path, err)
			case !tc.ok && !errors.Is(err, ErrFormat):
				t.Errorf("%s/%s: err = %v, want ErrFormat", tc.name, path, err)
			}
		}
		_, err := Read(strings.NewReader(tc.body))
		check("Read", err)
		for _, zip := range []bool{false, true} {
			body := []byte(tc.body)
			path := "ReadCSRStream/plain"
			if zip {
				body, path = gz(tc.body), "ReadCSRStream/gzip"
			}
			fired := false
			_, _, err := ReadCSRStream(bytes.NewReader(body), StreamOptions{
				OnContentHash: func([32]byte) error { fired = true; return nil },
			})
			check(path, err)
			if !tc.ok && fired {
				t.Errorf("%s/%s: OnContentHash fired for a rejected body", tc.name, path)
			}
		}
	}
}

// TestReadCSRStreamVerifiesGzipChecksum: a gzip body whose CRC trailer
// is corrupt is rejected, because the reader consumes the stream to EOF.
// Trailing comments put the trailer well past the bytes the entries
// need, so a reader that stops after the last entry never sees it.
func TestReadCSRStreamVerifiesGzipChecksum(t *testing.T) {
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write([]byte(sortedGeneral + strings.Repeat("% padding\n", 1<<15)))
	zw.Close()
	body := b.Bytes()
	body[len(body)-8] ^= 0xff // first byte of the CRC-32 trailer
	if m, _, err := ReadCSRStream(bytes.NewReader(body), StreamOptions{}); err == nil {
		t.Fatalf("corrupt gzip checksum accepted (matrix %dx%d)", m.Rows, m.Cols)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(zr); err == nil {
		t.Fatal("Read over a gzip reader accepted a corrupt checksum")
	}
}

// TestReadTrailingCommentBomb: comment lines after the entries count
// toward the same cap as those between them.
func TestReadTrailingCommentBomb(t *testing.T) {
	body := strings.NewReader("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n")
	comments := io.LimitReader(neverEndingComments{}, 1<<28)
	if _, err := Read(io.MultiReader(body, comments)); !errors.Is(err, ErrFormat) {
		t.Fatalf("trailing comment bomb: err = %v, want ErrFormat", err)
	}
}

// TestReadCSRStreamCommentBomb bounds comment skipping: a stream that
// never delivers its size line (the gzip-bomb shape) must be rejected,
// not scanned forever.
func TestReadCSRStreamCommentBomb(t *testing.T) {
	header := strings.NewReader("%%MatrixMarket matrix coordinate real general\n")
	comments := io.LimitReader(neverEndingComments{}, 1<<28)
	_, _, err := ReadCSRStream(io.MultiReader(header, comments), StreamOptions{})
	if err == nil {
		t.Fatal("comment bomb accepted")
	}
}

// neverEndingComments yields an endless stream of comment lines.
type neverEndingComments struct{}

func (neverEndingComments) Read(p []byte) (int, error) {
	for i := range p {
		if i%2 == 0 {
			p[i] = '%'
		} else {
			p[i] = '\n'
		}
	}
	return len(p), nil
}
