package mmio

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

// FuzzRead guards the Matrix Market parser: arbitrary input must return
// a descriptive error or a structurally valid matrix — never panic, and
// whatever parses must survive a write/read round trip.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 4\n",
		"%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"% comment only\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e309\n",
		// Adversarial headers: values that parse as ints but whose
		// downstream arithmetic (2*nnz, rows+1) would wrap without the
		// header bounds check.
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 9223372036854775807\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n9223372036854775807 9223372036854775807 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 4611686018427387904\n1 1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 99999999999999999999\n1 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		m, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed matrix invalid: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if !m.PatternEqual(back) {
			t.Fatal("round trip changed the pattern")
		}
	})
}

// FuzzReadCSRStream guards the streaming ingest path: arbitrary (and
// arbitrarily gzip-wrapped) input must never panic, any accepted matrix
// must be valid with a hash that matches its compiled form, and a plain
// body must parse the same through Read. Read runs the same entry loop
// without the hash, so that comparison pins the hashing path to the
// plain one; TestReadMatchesReference is the independent oracle.
func FuzzReadCSRStream(f *testing.F) {
	seeds := []string{
		"",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n1 3 2\n3 2 4\n",
		// Canonical order broken mid-stream: exercises the demotion path.
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n2 2 1\n1 1 2\n3 3 4\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4\n",
		// Comments interleaved between entries, and a truncated tail.
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n% gap\n1 1 1\n",
		// Gzip magic followed by garbage (sniff must not panic).
		"\x1f\x8b\x00\x00junk",
		"\x1f\x8b",
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, input string, zip bool) {
		body := []byte(input)
		if zip {
			var b bytes.Buffer
			zw := gzip.NewWriter(&b)
			zw.Write(body)
			zw.Close()
			body = b.Bytes()
		}
		m, info, err := ReadCSRStream(bytes.NewReader(body), StreamOptions{MaxNNZ: 1 << 16})
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("streamed matrix invalid: %v", err)
		}
		if !info.HashDone || info.Sum != m.ContentHash() {
			t.Fatal("stream hash disagrees with the compiled matrix")
		}
		want, err := Read(bytes.NewReader(body))
		if err != nil {
			// The buffered reader rejects gzip bodies; only compare when
			// both paths can see the same plain text.
			if !zip {
				t.Fatalf("stream accepted what Read rejects: %v", err)
			}
			return
		}
		if want.ContentHash() != info.Sum {
			t.Fatal("stream and buffered reads disagree")
		}
	})
}
