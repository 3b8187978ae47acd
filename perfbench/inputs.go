package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"slices"

	"finegrain/internal/matgen"
	"finegrain/internal/mmio"
	"finegrain/internal/sparse"
)

// input is one generated matrix, serialized to .mtx.gz before any clock
// starts. The program under test only ever sees Bytes.
type input struct {
	Name  string
	N     int
	NNZ   int
	Bytes []byte
}

func (in input) String() string {
	return fmt.Sprintf("%s n=%d nnz=%d mtx.gz=%dB", in.Name, in.N, in.NNZ, len(in.Bytes))
}

// mix derives an independent 64-bit seed from a workload seed and a salt
// (splitmix64 finalizer).
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// generate builds catalog matrix name at scale from the generation seed,
// optionally as its SPD form, and serializes it.
func generate(name string, scale float64, genSeed uint64, spd bool) (input, error) {
	spec, err := matgen.Lookup(name)
	if err != nil {
		return input{}, err
	}
	a := spec.Scaled(scale).Generate(genSeed)
	if spd {
		a = spdForm(a)
	}
	b, err := gzipMTX(a)
	if err != nil {
		return input{}, fmt.Errorf("serializing %s: %w", name, err)
	}
	label := name
	if spd {
		label += "/spd"
	}
	return input{Name: label, N: a.Rows, NNZ: a.NNZ(), Bytes: b}, nil
}

// spdForm returns the graph Laplacian of a's symmetrized off-diagonal
// pattern plus the identity: −1 for every edge {i, j}, degree+1 on the
// diagonal. The result is symmetric and strictly diagonally dominant with
// a positive diagonal, hence symmetric positive definite.
func spdForm(a *sparse.CSR) *sparse.CSR {
	n := a.Rows
	nbrs := make([][]int, n)
	for i := 0; i < n; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if j := a.ColIdx[p]; j != i && j < n {
				nbrs[i] = append(nbrs[i], j)
				nbrs[j] = append(nbrs[j], i)
			}
		}
	}
	out := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i, row := range nbrs {
		slices.Sort(row)
		row = slices.Compact(row)
		diag := false
		for _, j := range row {
			if !diag && j > i {
				out.ColIdx, out.Val = append(out.ColIdx, i), append(out.Val, float64(len(row)+1))
				diag = true
			}
			out.ColIdx, out.Val = append(out.ColIdx, j), append(out.Val, -1)
		}
		if !diag {
			out.ColIdx, out.Val = append(out.ColIdx, i), append(out.Val, float64(len(row)+1))
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

func gzipMTX(a *sparse.CSR) ([]byte, error) {
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if err := mmio.Write(gz, a); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// printInputs records each matrix's n, nnz and .mtx.gz bytes.
func printInputs(w io.Writer, ins []input) {
	for _, in := range ins {
		fmt.Fprintf(w, "input: %s\n", in)
	}
}
