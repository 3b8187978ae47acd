package core

import (
	"strings"
	"testing"

	"finegrain/internal/sparse"
)

func TestRenderSpySmall(t *testing.T) {
	a := figure1()
	asg := &Assignment{
		K: 2, A: a,
		NonzeroOwner: []int{0, 0, 0, 0, 0, 1, 1, 1, 1},
		XOwner:       []int{0, 0, 0, 1, 1},
		YOwner:       []int{0, 0, 0, 1, 1},
	}
	out := RenderSpy(asg, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+5 {
		t.Fatalf("%d lines, want header + 5 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "K=2") {
		t.Fatalf("header missing K: %s", lines[0])
	}
	// Row 0 has only a_00 owned by 0.
	if lines[1][0] != '0' {
		t.Fatalf("cell (0,0) = %c", lines[1][0])
	}
	// Row 2 (matrix row 1) holds owner-0 entries in columns 0..3.
	for c := 0; c < 4; c++ {
		if lines[2][c] != '0' {
			t.Fatalf("row 1 col %d = %c, want 0", c, lines[2][c])
		}
	}
	// Empty cells are dots.
	if lines[1][4] != '.' {
		t.Fatalf("empty cell = %c", lines[1][4])
	}
	// a_jj (owner 1) at (2,2).
	if lines[3][2] != '1' {
		t.Fatalf("cell (2,2) = %c, want 1", lines[3][2])
	}
}

func TestRenderSpyDownsamplesAndMixes(t *testing.T) {
	// 100×100 with two owners interleaved: downsampled cells mix.
	coo := sparse.NewCOO(100, 100)
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j += 3 {
			coo.Add(i, j, 1)
		}
	}
	a := coo.ToCSR()
	asg := &Assignment{K: 2, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, 100), YOwner: make([]int, 100)}
	for i := range asg.NonzeroOwner {
		asg.NonzeroOwner[i] = i % 2
	}
	out := RenderSpy(asg, 10)
	if !strings.Contains(out, "*") {
		t.Fatalf("downsampled interleaved owners should mix:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("%d lines, want 11", len(lines))
	}
	if len(lines[1]) != 10 {
		t.Fatalf("row width %d, want 10", len(lines[1]))
	}
}

func TestOwnerChar(t *testing.T) {
	cases := map[int]byte{
		-1: '.', -2: '*', 0: '0', 9: '9', 10: 'a', 35: 'z', 36: '#', 100: '#',
	}
	for owner, want := range cases {
		if got := ownerChar(owner); got != want {
			t.Fatalf("ownerChar(%d) = %c, want %c", owner, got, want)
		}
	}
}
