package spmv

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"finegrain/internal/comm"
	"finegrain/internal/core"
	"finegrain/internal/rng"
	"finegrain/internal/sparse"
)

// referencePlan is the plan compile as it stood before the layout
// routine: sortedUnique over every occurrence list, per-processor slot
// maps and sorted sender/destination lists. It is kept verbatim as the
// oracle every compiled array of NewPlan must equal.
func referencePlan(asg *core.Assignment) *Plan {
	a := asg.A
	k := asg.K
	pl := &Plan{
		k:     k,
		rows:  a.Rows,
		cols:  a.Cols,
		nnz:   len(asg.NonzeroOwner),
		procs: make([]pproc, k),
	}

	// Distribute nonzeros per processor, preserving CSR order: the
	// per-processor accumulation order every Exec repeats.
	counts := make([]int, k)
	for _, o := range asg.NonzeroOwner {
		counts[o]++
	}
	gRow := make([][]int32, k)
	gCol := make([][]int32, k)
	for p := 0; p < k; p++ {
		gRow[p] = make([]int32, 0, counts[p])
		gCol[p] = make([]int32, 0, counts[p])
		pl.procs[p].val = make([]float64, 0, counts[p])
	}
	for i := 0; i < a.Rows; i++ {
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			p := asg.NonzeroOwner[t]
			gRow[p] = append(gRow[p], int32(i))
			gCol[p] = append(gCol[p], int32(a.ColIdx[t]))
			pl.procs[p].val = append(pl.procs[p].val, a.Val[t])
		}
	}

	// Owned rows per processor (ascending) and each row's slot within
	// its owner's accumulator.
	rowAccSlot := make([]int32, a.Rows)
	for i, o := range asg.YOwner {
		pr := &pl.procs[o]
		rowAccSlot[i] = int32(len(pr.yOwned))
		pr.yOwned = append(pr.yOwned, int32(i))
	}
	for p := range pl.procs {
		pr := &pl.procs[p]
		pr.yAcc = make([]float64, len(pr.yOwned))
	}

	// Compile the local x fragment and expand routing, receiver by
	// receiver. colSlot maps a used global column to its xloc slot.
	expandOff := int32(0)
	for q := 0; q < k; q++ {
		pr := &pl.procs[q]
		used := referenceSortedUnique(gCol[q])
		colSlot := make(map[int32]int32, len(used))
		// Owned slots first.
		for _, j := range used {
			if asg.XOwner[j] == q {
				colSlot[j] = int32(len(pr.xOwnIdx))
				pr.xOwnIdx = append(pr.xOwnIdx, j)
			}
		}
		// Remote columns, grouped by owning sender, senders ascending,
		// columns ascending within a group (used is already sorted).
		bySender := make(map[int][]int32)
		var senders []int
		for _, j := range used {
			o := asg.XOwner[j]
			if o == q {
				continue
			}
			if _, ok := bySender[o]; !ok {
				senders = append(senders, o)
			}
			bySender[o] = append(bySender[o], j)
		}
		sort.Ints(senders)
		nloc := int32(len(pr.xOwnIdx))
		for _, sdr := range senders {
			cols := bySender[sdr]
			for _, j := range cols {
				colSlot[j] = nloc
				nloc++
			}
			pl.procs[sdr].expSend = append(pl.procs[sdr].expSend, sendRange{
				off: expandOff, src: -1, n: int32(len(cols)), idx: cols,
			})
			pr.expRecv = append(pr.expRecv, recvRange{
				off: expandOff,
				dst: nloc - int32(len(cols)),
				n:   int32(len(cols)),
			})
			expandOff += int32(len(cols))
			pl.counters.ExpandWords += len(cols)
			pl.counters.ExpandMessages++
		}
		pr.xloc = make([]float64, nloc)
		// Compute schedule columns.
		pr.locCol = make([]int32, len(gCol[q]))
		for t, j := range gCol[q] {
			pr.locCol[t] = colSlot[j]
		}
	}
	pl.expandBuf = make([]float64, expandOff)

	// Compile the partial layout and fold routing, sender by sender.
	foldOff := int32(0)
	for p := 0; p < k; p++ {
		pr := &pl.procs[p]
		touched := referenceSortedUnique(gRow[p])
		rowSlot := make(map[int32]int32, len(touched))
		for _, i := range touched {
			if asg.YOwner[i] == p {
				rowSlot[i] = int32(len(pr.ownAcc))
				pr.ownAcc = append(pr.ownAcc, rowAccSlot[i])
			}
		}
		byDest := make(map[int][]int32)
		var dests []int
		for _, i := range touched {
			d := asg.YOwner[i]
			if d == p {
				continue
			}
			if _, ok := byDest[d]; !ok {
				dests = append(dests, d)
			}
			byDest[d] = append(byDest[d], i)
		}
		sort.Ints(dests)
		nslot := int32(len(pr.ownAcc))
		for _, d := range dests {
			rows := byDest[d]
			src := nslot
			for _, i := range rows {
				rowSlot[i] = nslot
				nslot++
			}
			pr.foldSend = append(pr.foldSend, sendRange{off: foldOff, src: src, n: int32(len(rows))})
			acc := make([]int32, len(rows))
			for w, i := range rows {
				acc[w] = rowAccSlot[i]
			}
			// Sender loop ascending ⇒ each receiver's foldRecv list ends
			// up in ascending sender order: own partial first, then
			// senders ascending, the fold accumulation order.
			pl.procs[d].foldRecv = append(pl.procs[d].foldRecv, foldRecv{off: foldOff, acc: acc})
			foldOff += int32(len(rows))
			pl.counters.FoldWords += len(rows)
			pl.counters.FoldMessages++
		}
		pr.partial = make([]float64, nslot)
		pr.locRow = make([]int32, len(gRow[p]))
		for t, i := range gRow[p] {
			pr.locRow[t] = rowSlot[i]
		}
	}
	pl.foldBuf = make([]float64, foldOff)
	return pl
}

// referenceSortedUnique returns the ascending distinct values of s without
// mutating it.
func referenceSortedUnique(s []int32) []int32 {
	out := slices.Clone(s)
	slices.Sort(out)
	return slices.Compact(out)
}

// diffPlans returns the first difference between two compiled plans:
// shape, buffer sizes, counters and every processor's schedule arrays.
func diffPlans(got, want *Plan) error {
	if got.k != want.k || got.rows != want.rows || got.cols != want.cols || got.nnz != want.nnz {
		return fmt.Errorf("shape k/rows/cols/nnz %d/%d/%d/%d, want %d/%d/%d/%d",
			got.k, got.rows, got.cols, got.nnz, want.k, want.rows, want.cols, want.nnz)
	}
	gc, wc := got.counters, want.counters
	if gc.ExpandWords != wc.ExpandWords || gc.FoldWords != wc.FoldWords ||
		gc.ExpandMessages != wc.ExpandMessages || gc.FoldMessages != wc.FoldMessages {
		return fmt.Errorf("counters %+v, want %+v", got.counters, want.counters)
	}
	if len(got.expandBuf) != len(want.expandBuf) || len(got.foldBuf) != len(want.foldBuf) {
		return fmt.Errorf("buffers %d/%d words, want %d/%d",
			len(got.expandBuf), len(got.foldBuf), len(want.expandBuf), len(want.foldBuf))
	}
	for p := range want.procs {
		g, w := &got.procs[p], &want.procs[p]
		if !slices.Equal(g.val, w.val) {
			return fmt.Errorf("proc %d: val differs", p)
		}
		for _, f := range []struct {
			name      string
			got, want []int32
		}{
			{"locRow", g.locRow, w.locRow},
			{"locCol", g.locCol, w.locCol},
			{"xOwnIdx", g.xOwnIdx, w.xOwnIdx},
			{"ownAcc", g.ownAcc, w.ownAcc},
			{"yOwned", g.yOwned, w.yOwned},
		} {
			if !slices.Equal(f.got, f.want) {
				return fmt.Errorf("proc %d: %s = %v, want %v", p, f.name, f.got, f.want)
			}
		}
		if len(g.xloc) != len(w.xloc) || len(g.partial) != len(w.partial) || len(g.yAcc) != len(w.yAcc) {
			return fmt.Errorf("proc %d: xloc/partial/yAcc sizes %d/%d/%d, want %d/%d/%d", p,
				len(g.xloc), len(g.partial), len(g.yAcc), len(w.xloc), len(w.partial), len(w.yAcc))
		}
		sendEq := func(a, b sendRange) bool {
			return a.off == b.off && a.src == b.src && a.n == b.n && slices.Equal(a.idx, b.idx)
		}
		if !slices.EqualFunc(g.expSend, w.expSend, sendEq) {
			return fmt.Errorf("proc %d: expSend = %v, want %v", p, g.expSend, w.expSend)
		}
		if !slices.Equal(g.expRecv, w.expRecv) {
			return fmt.Errorf("proc %d: expRecv = %v, want %v", p, g.expRecv, w.expRecv)
		}
		if !slices.EqualFunc(g.foldSend, w.foldSend, sendEq) {
			return fmt.Errorf("proc %d: foldSend = %v, want %v", p, g.foldSend, w.foldSend)
		}
		if !slices.EqualFunc(g.foldRecv, w.foldRecv, func(a, b foldRecv) bool {
			return a.off == b.off && slices.Equal(a.acc, b.acc)
		}) {
			return fmt.Errorf("proc %d: foldRecv = %v, want %v", p, g.foldRecv, w.foldRecv)
		}
	}
	return nil
}

// drawCase builds a rows×cols matrix from entries draws (duplicate
// entries merged, rows and columns no draw hits left empty) and owners
// over k processors; draw(n) returns a value in [0, n).
func drawCase(rows, cols, k, entries int, draw func(n int) int) *core.Assignment {
	coo := sparse.NewCOO(rows, cols)
	for ; entries > 0; entries-- {
		coo.Add(draw(rows), draw(cols), float64(draw(256)-128)/16)
	}
	a := coo.ToCSR()
	asg := &core.Assignment{
		K: k, A: a,
		NonzeroOwner: make([]int, a.NNZ()),
		XOwner:       make([]int, cols),
		YOwner:       make([]int, rows),
	}
	for _, owners := range [][]int{asg.NonzeroOwner, asg.XOwner, asg.YOwner} {
		for i := range owners {
			owners[i] = draw(k)
		}
	}
	return asg
}

// TestPlanMatchesReference: NewPlan's layout routine must compile every
// array exactly as the reference compile does, on random assignments of
// random rectangular matrices, including K = 1 and K above the row
// count.
func TestPlanMatchesReference(t *testing.T) {
	r := rng.New(30)
	for trial := 0; trial < 320; trial++ {
		rows, cols := 1+r.Intn(40), 1+r.Intn(40)
		k := 1 + r.Intn(12)
		switch trial % 8 {
		case 0:
			k = 1
		case 1:
			k = rows + 1 + r.Intn(8)
		}
		asg := drawCase(rows, cols, k, r.Intn(4*(rows+cols)), r.Intn)
		pl, err := NewPlan(asg)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffPlans(pl, referencePlan(asg)); err != nil {
			t.Fatalf("trial %d (%dx%d, K=%d): %v", trial, rows, cols, k, err)
		}
	}
}

// FuzzNewPlan decodes the input into a small matrix (duplicate entries
// merged, empty rows and columns) and owners over K in [1, 9], then
// checks the compile against the reference, Exec at Workers 1 and 3
// against each other bitwise and against the serial product, and the
// plan's counters against comm.Measure.
func FuzzNewPlan(f *testing.F) {
	f.Add([]byte{3, 3, 2, 0, 0, 1, 1, 2, 2, 0, 2, 1, 0})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{7, 2, 8, 1, 1, 1, 1, 6, 1, 5, 0, 4, 1, 3, 0, 2, 5, 7, 3, 1, 4})
	f.Add([]byte("fine-grain hypergraph model for 2D decomposition"))
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		rows, cols, k := 1+draw(12), 1+draw(12), 1+draw(9)
		asg := drawCase(rows, cols, k, draw(48), draw)
		a := asg.A

		pl, err := NewPlan(asg)
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		if err := diffPlans(pl, referencePlan(asg)); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, cols)
		for j := range x {
			x[j] = float64(j%7) - 2.5
		}
		want := make([]float64, rows)
		a.MulVec(x, want)
		y1, y3 := make([]float64, rows), make([]float64, rows)
		if err := pl.Exec(x, y1, ExecOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if err := pl.Exec(x, y3, ExecOptions{Workers: 3}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(y1[i]) != math.Float64bits(y3[i]) {
				t.Fatalf("y[%d]: Workers 1 gave %v, Workers 3 gave %v", i, y1[i], y3[i])
			}
			if math.Abs(y1[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("y[%d] = %v, serial MulVec %v", i, y1[i], want[i])
			}
		}
		st, err := comm.Measure(asg)
		if err != nil {
			t.Fatal(err)
		}
		ctr := pl.Counters()
		if ctr.ExpandWords != st.ExpandVolume || ctr.FoldWords != st.FoldVolume ||
			ctr.ExpandMessages != st.ExpandMessages || ctr.FoldMessages != st.FoldMessages {
			t.Fatalf("plan counters %+v, comm.Measure words %d/%d messages %d/%d", ctr,
				st.ExpandVolume, st.FoldVolume, st.ExpandMessages, st.FoldMessages)
		}
	})
}
