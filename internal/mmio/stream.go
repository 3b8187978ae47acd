package mmio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"slices"

	"finegrain/internal/sparse"
)

// StreamOptions configures ReadCSRStream.
type StreamOptions struct {
	// MaxNNZ, when positive, bounds the size line: rows, cols and the
	// entry count must all be at most MaxNNZ or the stream is rejected
	// with ErrFormat before any entry is parsed (and before any
	// size-proportional allocation). Bounding the dimensions alongside
	// the entry count is deliberate: the serving pipeline patches empty
	// rows and columns with diagonal entries, so any matrix it accepts
	// ends up with nnz >= max(rows, cols).
	MaxNNZ int
	// OnContentHash, when non-nil, is called exactly once with the
	// matrix's canonical content hash (sparse.ContentHasher) the moment
	// it is known. For a stream whose entries arrive in canonical CSR
	// order — the order Write emits — that is immediately after the last
	// entry is parsed and before the CSR is assembled, which lets a
	// caller abort duplicate uploads without finishing construction: a
	// non-nil return stops the read and ReadCSRStream returns (nil,
	// info, err) with that error. Out-of-order, duplicated or symmetric
	// input must be canonicalized first, so the callback then runs after
	// CSR compilation.
	OnContentHash func(sum [32]byte) error
}

// StreamInfo reports how a stream was ingested.
type StreamInfo struct {
	// Rows, Cols and HeaderNNZ echo the size line (HeaderNNZ counts
	// stored entries, before symmetric mirroring).
	Rows, Cols, HeaderNNZ int
	// Canonical is true when the entries arrived already in canonical
	// CSR order (general symmetry, rows ascending, columns strictly
	// ascending within a row), so the matrix was built and hashed
	// incrementally without an intermediate triplet buffer.
	Canonical bool
	// Sum is the canonical content hash of the parsed matrix. It is set
	// whenever OnContentHash was reached, including when the callback
	// aborted the read.
	Sum [32]byte
	// HashDone records that Sum is valid.
	HashDone bool
}

// ReadCSRStream parses a Matrix Market stream incrementally into a CSR
// matrix without buffering the raw body. It is the ingest path for
// uploads: peak memory is proportional to the compiled matrix, not to
// the bytes on the wire.
//
// The reader is gzip-aware: a stream starting with the gzip magic is
// decompressed transparently, so both plain and gzip-encoded uploads
// flow through the same call.
//
// Entries that arrive in canonical CSR order — sorted by row then
// column, no duplicates, general symmetry; the order Write produces —
// are appended directly to the CSR arrays and fed to the content hasher
// as they are parsed. Anything else (symmetric variants, unsorted
// coordinate files) falls back to triplet assembly and is canonicalized
// by compilation, still without retaining the raw body. See
// StreamOptions.OnContentHash for early duplicate detection.
func ReadCSRStream(r io.Reader, opt StreamOptions) (*sparse.CSR, StreamInfo, error) {
	var info StreamInfo
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, info, fmt.Errorf("%w: gzip: %v", ErrFormat, err)
		}
		defer gz.Close()
		return readCSR(newScanner(gz), opt, true)
	}
	return readCSR(newScanner(br), opt, true)
}

// readCSR is the one Matrix Market entry loop, shared by Read and
// ReadCSRStream. With hash set it computes the content hash (inline on
// the canonical path, from the compiled CSR otherwise), fills Sum and
// HashDone and calls opt.OnContentHash; without it Read pays for
// neither.
func readCSR(sc *bufio.Scanner, opt StreamOptions, hash bool) (*sparse.CSR, StreamInfo, error) {
	var info StreamInfo
	h, rows, cols, nnz, err := readPreamble(sc)
	if err != nil {
		return nil, info, err
	}
	info.Rows, info.Cols, info.HeaderNNZ = rows, cols, nnz
	if opt.MaxNNZ > 0 {
		if nnz > opt.MaxNNZ {
			return nil, info, fmt.Errorf("%w: nnz %d exceeds the configured limit %d", ErrFormat, nnz, opt.MaxNNZ)
		}
		if rows > opt.MaxNNZ || cols > opt.MaxNNZ {
			return nil, info, fmt.Errorf("%w: dimensions %dx%d exceed the configured limit %d", ErrFormat, rows, cols, opt.MaxNNZ)
		}
	}

	// Canonical-order fast path state: entries append straight into the
	// final CSR arrays, per-row counts accumulate for the row-pointer
	// prefix sum, and the content hasher (when asked for) runs inline.
	// Symmetric variants mirror their off-diagonal entries, so their
	// triplet hint is doubled. The preallocation is capped because the
	// header is untrusted: a fabricated nnz must not commit gigabytes
	// before the loop finds the input short, and growth beyond the cap is
	// paid by append, not up front.
	canonical := h.symmetry == "general"
	capHint := nnz
	if !canonical {
		capHint = 2 * nnz
	}
	capHint = min(capHint, 1<<20)
	var (
		colIdx  []int
		vals    []float64
		counts  []int // per-row entry counts, grown to the highest row seen
		hasher  *sparse.ContentHasher
		prevRow = -1
		prevCol = -1
		coo     *sparse.COO // fallback triplet buffer, nil while canonical
		pattern = h.field == "pattern"
		read    = 0
		skipped = 0
	)
	if hash {
		hasher = sparse.NewContentHasher(rows, cols)
	}
	if canonical {
		// Start small: unsorted input usually leaves the fast path
		// within a few entries, and would abandon full-size arrays. The
		// first regrowth jumps straight to the hint.
		colIdx = make([]int, 0, min(capHint, 1<<10))
		vals = make([]float64, 0, cap(colIdx))
	} else {
		coo = sparse.NewCOO(rows, cols)
		coo.Entries = make([]sparse.Entry, 0, capHint)
	}
	// demote moves the canonically-accumulated prefix into a COO buffer
	// when an entry breaks canonical order. The prefix is grouped by
	// ascending row with counts[i] entries in row i, so rows reconstruct
	// from the counts alone.
	demote := func() {
		coo = sparse.NewCOO(rows, cols)
		coo.Entries = make([]sparse.Entry, 0, max(capHint, len(colIdx)))
		p := 0
		for i, c := range counts {
			for ; c > 0; c-- {
				coo.Entries = append(coo.Entries, sparse.Entry{Row: i, Col: colIdx[p], Val: vals[p]})
				p++
			}
		}
		canonical = false
		colIdx, vals, counts = nil, nil, nil
	}
	for read < nnz {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, info, fmt.Errorf("mmio: %v", err)
			}
			return nil, info, fmt.Errorf("%w: expected %d entries, got %d", ErrFormat, nnz, read)
		}
		line := sc.Bytes()
		pos := skipSpace(line, 0)
		if pos == len(line) || line[pos] == '%' {
			if skipped++; skipped > maxSkipLines {
				return nil, info, fmt.Errorf("%w: more than %d comment lines between entries", ErrFormat, maxSkipLines)
			}
			continue
		}
		i, pos, ok := parseIntBytes(line, pos)
		if !ok {
			return nil, info, fmt.Errorf("%w: entry line %q", ErrFormat, string(line))
		}
		j, pos, ok := parseIntBytes(line, pos)
		if !ok {
			return nil, info, fmt.Errorf("%w: entry line %q", ErrFormat, string(line))
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, info, fmt.Errorf("%w: entry (%d,%d) out of bounds for %dx%d", ErrFormat, i, j, rows, cols)
		}
		v := 1.0
		if !pattern {
			v, ok = parseFloatBytes(line, pos)
			if !ok {
				return nil, info, fmt.Errorf("%w: entry line %q", ErrFormat, string(line))
			}
		}
		i--
		j--
		if canonical && (i < prevRow || (i == prevRow && j <= prevCol)) {
			demote()
		}
		if canonical {
			if len(counts) <= i {
				grow := len(counts) * 2
				if grow <= i {
					grow = i + 1
				}
				if grow > rows {
					grow = rows
				}
				counts = append(counts, make([]int, grow-len(counts))...)
			}
			counts[i]++
			if len(colIdx) == cap(colIdx) && len(colIdx) < capHint {
				colIdx = slices.Grow(colIdx, capHint-len(colIdx))
				vals = slices.Grow(vals, capHint-len(vals))
			}
			colIdx = append(colIdx, j)
			vals = append(vals, v)
			if hash {
				hasher.Entry(i, j, v)
			}
			prevRow, prevCol = i, j
		} else {
			coo.Add(i, j, v)
			switch h.symmetry {
			case "symmetric":
				if i != j {
					coo.Add(j, i, v)
				}
			case "skew-symmetric":
				if i != j {
					coo.Add(j, i, -v)
				}
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, info, fmt.Errorf("mmio: %v", err)
	}

	var m *sparse.CSR
	if canonical {
		info.Canonical = true
	} else {
		m = coo.ToCSR()
	}
	if hash {
		// On the canonical path the hash is complete before the CSR is
		// assembled: this is the early-duplicate window the callback
		// exists for.
		if canonical {
			info.Sum = hasher.Sum()
		} else {
			info.Sum = m.ContentHash()
		}
		info.HashDone = true
		if opt.OnContentHash != nil {
			if err := opt.OnContentHash(info.Sum); err != nil {
				return nil, info, err
			}
		}
	}
	if canonical {
		m = &sparse.CSR{Rows: rows, Cols: cols, ColIdx: colIdx, Val: vals}
		m.RowPtr = make([]int, rows+1)
		for i := 0; i < rows; i++ {
			c := 0
			if i < len(counts) {
				c = counts[i]
			}
			m.RowPtr[i+1] = m.RowPtr[i] + c
		}
	}
	return m, info, nil
}
