package core

import (
	"fmt"
	"strings"
)

// RenderSpy draws an ASCII "spy plot" of a decomposition: the matrix
// down-sampled to at most maxDim×maxDim character cells, each cell
// showing the owner of the nonzeros that fall in it (0-9, then a-z,
// then '#'; '.' for empty, '*' for a cell whose nonzeros span several
// owners). Handy for eyeballing how a 2D decomposition carves the
// matrix, e.g. from cmd/sparsepart -spy.
func RenderSpy(asg *Assignment, maxDim int) string {
	a := asg.A
	if maxDim < 1 {
		maxDim = 64
	}
	h := a.Rows
	w := a.Cols
	if h > maxDim {
		h = maxDim
	}
	if w > maxDim {
		w = maxDim
	}
	if h == 0 || w == 0 {
		return "(empty matrix)\n"
	}
	// cellOwner[r][c]: -1 empty, -2 mixed, else the single owner.
	cell := make([][]int, h)
	for r := range cell {
		cell[r] = make([]int, w)
		for c := range cell[r] {
			cell[r][c] = -1
		}
	}
	for i := 0; i < a.Rows; i++ {
		r := i * h / a.Rows
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k] * w / a.Cols
			owner := asg.NonzeroOwner[k]
			switch prev := cell[r][c]; {
			case prev == -1:
				cell[r][c] = owner
			case prev >= 0 && prev != owner:
				cell[r][c] = -2
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "spy %dx%d (cells %dx%d, K=%d; digit/letter = owner, * = mixed cell)\n",
		a.Rows, a.Cols, h, w, asg.K)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			sb.WriteByte(ownerChar(cell[r][c]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func ownerChar(owner int) byte {
	switch {
	case owner == -1:
		return '.'
	case owner == -2:
		return '*'
	case owner < 10:
		return byte('0' + owner)
	case owner < 36:
		return byte('a' + owner - 10)
	default:
		return '#'
	}
}
