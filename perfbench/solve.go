package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"finegrain"
	"finegrain/internal/kernel"
	"finegrain/internal/mmio"
	"finegrain/internal/obs"
	"finegrain/internal/reorder"
	"finegrain/internal/sparse"
)

const (
	solveK      = 64
	blockN      = 8 // right-hand sides of the block solve
	solveSetups = 3 // set-ups per run; setup_s is their median
	execReps    = 5 // traced single multiplies per matrix per round
	// solveWorkers is the goroutine bound of every timed solve. On a
	// shared host, multiplies whose phases end in a barrier across
	// goroutines swing with the neighbours' load far more than serial
	// ones do; the traced probes still time the default worker count
	// (spmv.exec_us, kernel.exec_us.natural) beside one worker.
	solveWorkers = 1
)

// solveMatrix is one SPD matrix made ready for the warm path: a
// fine-grain session plus the kernel plan permuted by finegrain.Reorder.
type solveMatrix struct {
	in      input
	a       *sparse.CSR
	dec     *finegrain.Decomposition
	sess    *finegrain.Session
	perm    *reorder.Permutation
	kplan   *kernel.Plan
	natural *kernel.Plan // natural-order plan, traced runs only
	b, B    []float64    // one and blockN right-hand sides
	bp      []float64    // b in the kernel plan's index space
}

func (m *solveMatrix) close() {
	m.sess.Close()
	m.kplan.Close()
	if m.natural != nil {
		m.natural.Close()
	}
}

// setupSolve takes one matrix from bytes to a ready session and kernel
// plan and checks them. It returns the bytes → ready time and the
// decompose time.
func setupSolve(ck *checker, in input, tr *obs.Trace, withNatural bool) (*solveMatrix, time.Duration, time.Duration, error) {
	label := in.Name
	t0 := time.Now()
	sp := tr.Begin(benchCat, "mmio.read").Arg("bytes", int64(len(in.Bytes)))
	a, _, err := mmio.ReadCSRStream(bytes.NewReader(in.Bytes), mmio.StreamOptions{})
	sp.End()
	if !ck.op("ingest "+label, err) {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	sp = tr.Begin(benchCat, "finegrain.decompose")
	dec, err := finegrain.DecomposeModel("finegrain", a, solveK, finegrain.Options{Seed: partSeed, Eps: eps, Trace: tr})
	sp.End()
	t2 := time.Now()
	if !ck.op("decompose "+label, err) {
		return nil, 0, 0, err
	}
	sp = tr.Begin(benchCat, "finegrain.session")
	sess, err := finegrain.NewSession(dec, finegrain.SessionOptions{CompileLocal: true, Trace: tr})
	sp.End()
	if !ck.op("session "+label, err) {
		return nil, 0, 0, err
	}
	sp = tr.Begin(benchCat, "reorder")
	_, perm, err := finegrain.Reorder(dec, finegrain.Options{Trace: tr})
	sp.End()
	if !ck.op("reorder "+label, err) {
		sess.Close()
		return nil, 0, 0, err
	}
	sp = tr.Begin(benchCat, "kernel.compile")
	kp, err := kernel.NewPlanTraced(a, perm, kernel.Options{}, tr)
	sp.End()
	t3 := time.Now()
	if !ck.op("kernel compile "+label, err) {
		sess.Close()
		return nil, 0, 0, err
	}
	m := &solveMatrix{in: in, a: a, dec: dec, sess: sess, perm: perm, kplan: kp}
	if withNatural {
		if m.natural, err = kernel.NewPlan(a, nil, kernel.Options{}); !ck.op("kernel compile natural "+label, err) {
			m.close()
			return nil, 0, 0, err
		}
	}

	x := testVector(a.Cols, 7)
	y := make([]float64, a.Rows)
	if ck.op("multiply "+label, sess.Multiply(x, y, finegrain.ExecOptions{})) {
		checkSession(ck, label, a, dec, sess, x, y, true)
	}
	ck.check("reorder symmetric", equalPerm(perm.Row, perm.Col),
		"%s: row and column permutations differ, so the permuted plan is not SPD", label)
	m.b = testVector(a.Rows, 11)
	m.B = make([]float64, blockN*a.Rows)
	for v := 0; v < blockN; v++ {
		copy(m.B[v*a.Rows:], testVector(a.Rows, uint64(100+v)))
	}
	m.bp = make([]float64, a.Rows)
	reorder.ApplyVec(m.bp, m.b, perm.Row)
	return m, t3.Sub(t0), t2.Sub(t1), nil
}

func equalPerm(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// solveKind is one of the three timed solves.
type solveKind int

const (
	solveOne solveKind = iota
	solveBlock
	solveLocal
	numSolveKinds
)

var solveKindNames = [numSolveKinds]string{"solve1", "solve8", "local"}

// solve runs one solve of kind k on m, checks it, and returns its wall
// time and its CG iterations summed over right-hand sides. A non-nil tr
// records the library's solve spans.
func (m *solveMatrix) solve(ck *checker, k solveKind, tr *obs.Trace, st *solveStats) (time.Duration, int, error) {
	label := m.in.Name + "/" + solveKindNames[k]
	rows := m.a.Rows
	switch k {
	case solveOne, solveBlock:
		B, n := m.b, 1
		if k == solveBlock {
			B, n = m.B, blockN
		}
		t0 := time.Now()
		sp := tr.Begin(benchCat, "finegrain.solve").Arg("n", int64(n))
		res, err := m.sess.Solve(B, n, finegrain.SolveOptions{Tol: solveTol, Trace: tr, Workers: solveWorkers})
		sp.End()
		d := time.Since(t0)
		if !ck.op(label, err) {
			return 0, 0, err
		}
		for v := 0; v < n; v++ {
			x, b := res.X[v*rows:(v+1)*rows], B[v*rows:(v+1)*rows]
			ck.check("converged", res.Converged[v], "%s rhs %d: not converged after %d iterations", label, v, res.Iterations[v])
			r := relResidual(m.a.MulVec, x, b)
			ck.check("residual", r <= solveTol, "%s rhs %d: true residual %.3g > %g", label, v, r, solveTol)
		}
		if st != nil {
			if k == solveOne {
				st.iters += res.Iterations[0]
			} else {
				st.blockIters += res.BlockIterations
			}
			st.allreduce += res.AllreduceWords
		}
		iters := 0
		for _, it := range res.Iterations {
			iters += it
		}
		return d, iters, nil
	default:
		var track *obs.Track
		if tr != nil {
			track = tr.NewTrack("kernel cg")
		}
		t0 := time.Now()
		sp := tr.Begin(benchCat, "kernel.cg")
		res, err := m.kplan.CG(m.bp, kernel.CGOptions{Tol: solveTol, Track: track, Workers: solveWorkers})
		sp.End()
		d := time.Since(t0)
		if !ck.op(label, err) {
			return 0, 0, err
		}
		x := make([]float64, rows)
		reorder.UnapplyVec(x, res.X, m.perm.Col)
		ck.check("converged", res.Converged, "%s: not converged after %d iterations", label, res.Iterations)
		r := relResidual(m.a.MulVec, x, m.b)
		ck.check("residual", r <= solveTol, "%s: true residual %.3g > %g", label, r, solveTol)
		return d, res.Iterations, nil
	}
}

// solveStats collects the exact solver counts of one traced round.
type solveStats struct{ iters, blockIters, allreduce int }

// runSolve is the warm path of the paper's iterative-solver use: the
// partitioner runs only in set-up, and the timed section repeats a
// 1-RHS and an 8-RHS Session.Solve and a kernel.Plan.CG per matrix.
func runSolve(cfg config, ck *checker) (*outcome, error) {
	gen := time.Now()
	var ins []input
	for i, name := range pipelineMatrices {
		in, err := generate(name, cfg.scale, mix(cfg.seed, uint64(i)), true)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	out := newOutcome(ins)
	out.note("inputs generated in %.2fs", time.Since(gen).Seconds())
	layers := samples{}

	// Set up several times; the last set-up serves the timed section.
	// In traced runs every set-up but the last is traced, so the timed
	// sessions carry no set-up trace.
	setupBy, decBy := samples{}, samples{} // per matrix, one sample per set-up
	var setups, decomposes []float64       // summed over matrices, per set-up
	var ms []*solveMatrix
	for s := 0; s < solveSetups; s++ {
		last := s == solveSetups-1
		var tr *obs.Trace
		if cfg.trace && !last {
			tr = obs.New()
		}
		var cur []*solveMatrix
		var setup, dec time.Duration
		for _, in := range ins {
			m, su, d, err := setupSolve(ck, in, tr, cfg.trace && last)
			if err != nil {
				return nil, err
			}
			cur = append(cur, m)
			setup += su
			dec += d
			setupBy.add(in.Name, su.Seconds())
			decBy.add(in.Name, d.Seconds())
		}
		setups = append(setups, setup.Seconds())
		decomposes = append(decomposes, dec.Seconds())
		if tr != nil {
			if err := addSetupLayers(tr, layers); err != nil {
				return nil, err
			}
		}
		if !last {
			for _, m := range cur {
				m.close()
			}
		} else {
			ms = cur
		}
	}
	defer func() {
		for _, m := range ms {
			m.close()
		}
	}()

	per := make([]samples, len(ms)) // per matrix: one sample list per solve kind
	iters := make([][numSolveKinds]int, len(ms))
	for i := range per {
		per[i] = samples{}
	}
	// One untimed round first, so the sessions' lazily grown scratch is
	// in place before the clock starts.
	for _, m := range ms {
		for k := solveKind(0); k < numSolveKinds; k++ {
			if _, _, err := m.solve(ck, k, nil, nil); err != nil {
				return nil, err
			}
		}
	}
	var traced, untraced time.Duration
	var allocs []float64 // TotalAlloc per round, MB
	var m0, m1 runtime.MemStats
	runtime.GC()
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	rounds := 0
	var last time.Duration
	for rounds < 2 || time.Since(start)+last <= budget {
		r0 := time.Now()
		runtime.ReadMemStats(&m0)
		var rs solveStats
		solveSpans := map[string][]span{} // per matrix: the traced solves
		probeSpans := map[string][]span{} // per matrix: the exec probes
		for j := range ms {
			mi := (j + rounds) % len(ms)
			m := ms[mi]
			for k := solveKind(0); k < numSolveKinds; k++ {
				d, it, err := m.solve(ck, k, nil, nil)
				if err != nil {
					return nil, err
				}
				per[mi].add(solveKindNames[k], d.Seconds())
				iters[mi][k] = it
				if !cfg.trace {
					continue
				}
				tr := obs.New()
				td, _, err := m.solve(ck, k, tr, &rs)
				if err != nil {
					return nil, err
				}
				traced += td
				untraced += d
				spans, err := spansOf(tr)
				if err != nil {
					return nil, err
				}
				solveSpans[m.in.Name] = append(solveSpans[m.in.Name], spans...)
			}
			if cfg.trace {
				spans, err := m.execProbes()
				if err != nil {
					return nil, err
				}
				probeSpans[m.in.Name] = spans
			}
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if cfg.trace {
			addSolveRound(ms, solveSpans, probeSpans, rs, layers)
		}
		rounds++
		last = time.Since(r0)
	}
	elapsed := time.Since(start)

	var kindSum [numSolveKinds]float64
	var allIters int
	for i := range ms {
		for k := solveKind(0); k < numSolveKinds; k++ {
			v, _ := per[i].median(solveKindNames[k])
			kindSum[k] += v
			allIters += iters[i][k]
		}
	}
	var vol, msg int
	for _, m := range ms {
		ctr := m.sess.Counters()
		vol, msg = vol+ctr.TotalWords(), msg+ctr.TotalMessages()
	}
	out.e2e = map[string]float64{
		"setup_s":      sumValues(setupBy.medians()),
		"decompose_s":  sumValues(decBy.medians()),
		"ops_per_s":    float64(allIters) / (kindSum[solveOne] + kindSum[solveBlock] + kindSum[solveLocal]),
		"volume_words": float64(vol),
		"messages":     float64(msg),
		"alloc_mb":     median(allocs),
	}
	out.note("rounds=%d timed=%.1fs; set-ups (s): %.3f; their decompose (s): %.3f; CG iterations per round: %d",
		rounds, elapsed.Seconds(), setups, decomposes, allIters)
	out.named("setup_s", out.e2e["setup_s"], "s", "bytes → ready session and kernel plan, summed over matrices")
	out.named("solve_s", kindSum[solveOne], "s", "one 1-RHS Session.Solve, summed over matrices")
	out.named("block_solve_s_per_rhs", kindSum[solveBlock]/blockN, "s", "one 8-RHS Session.Solve / 8, summed over matrices")
	out.named("local_solve_s", kindSum[solveLocal], "s", "kernel.Plan.CG on the reordered plan, summed over matrices")
	out.named("alloc_mb", out.e2e["alloc_mb"], "MB", "TotalAlloc per round, median")
	if cfg.trace {
		out.layers = layers.medians()
		if untraced > 0 {
			out.layers["obs.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
		}
		out.addProbe()
	}
	return out, nil
}

// execProbes times single multiplies outside any solve: the session's
// simulator plan at the default and at one worker, and the kernel's
// natural-order and reordered plans (the latter at one worker). Each
// probe runs under its own benchmark span.
func (m *solveMatrix) execProbes() ([]span, error) {
	tr := obs.New()
	tk := tr.NewTrack("exec probes")
	rows, cols := m.a.Rows, m.a.Cols
	x, y := testVector(cols, 3), make([]float64, rows)
	for r := 0; r < execReps; r++ {
		sp := tk.Begin(benchCat, "spmv.exec")
		err := m.sess.Multiply(x, y, finegrain.ExecOptions{})
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tk.Begin(benchCat, "spmv.exec.w1")
		err = m.sess.Multiply(x, y, finegrain.ExecOptions{Workers: 1})
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tk.Begin(benchCat, "kernel.exec.natural")
		err = m.natural.Exec(x, y, kernel.ExecOptions{Track: tk})
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tk.Begin(benchCat, "kernel.exec.w1")
		err = m.kplan.Exec(x, y, kernel.ExecOptions{Workers: 1, Track: tk})
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return spansOf(tr)
}

// addSetupLayers rolls up one traced set-up: plan compiles and the
// reorder decode and apply, summed over matrices.
func addSetupLayers(tr *obs.Trace, layers samples) error {
	spans, err := spansOf(tr)
	if err != nil {
		return err
	}
	ru := summarize(spans, nil)
	decomposeLayers(ru, "finegrain", layers.add)
	for _, x := range []struct{ metric, cat, name string }{
		{"kernel.compile_s", "kernel", "compile"},
		{"reorder.decode_s", "reorder", "decode"},
		{"mmio.read_s", benchCat, "mmio.read"},
	} {
		if v, ok := ru.totalS(x.cat, x.name); ok {
			layers.add(x.metric, v)
		}
	}
	if read, ok := ru.totalS(benchCat, "mmio.read"); ok && read > 0 {
		var n int64
		for _, sp := range spans {
			if sp.Cat == benchCat && sp.Name == "mmio.read" {
				n += sp.Args["bytes"]
			}
		}
		layers.add("mmio.mb_per_s", float64(n)/1e6/read)
	}
	// The benchmark's reorder span wraps finegrain.Reorder; its self
	// time is the permutation's application after the decode.
	if v, ok := ru.selfS(benchCat, "reorder"); ok {
		layers.add("reorder.apply_s", v)
	}
	return nil
}

// addSolveRound rolls up one traced round of solves and probes into
// per-layer samples. Per-multiply times are medians per matrix, summed
// over matrices; phase times are round totals.
func addSolveRound(ms []*solveMatrix, solveSpans, probeSpans map[string][]span, rs solveStats, layers samples) {
	var all []span
	sums := map[string]float64{}
	have := map[string]bool{}
	addMed := func(metric string, st *spanStats, div float64, self bool) {
		if st == nil {
			return
		}
		v := st.Median()
		if self {
			v = st.MedianSelf()
		}
		sums[metric] += v / div
		have[metric] = true
	}
	var nnz, bytesMoved float64
	for _, m := range ms {
		probes := summarize(probeSpans[m.in.Name], nil)
		addMed("spmv.exec_us", probes.get(benchCat, "spmv.exec"), 1, false)
		addMed("spmv.exec_us.w1", probes.get(benchCat, "spmv.exec.w1"), 1, false)
		addMed("kernel.exec_us.natural", probes.get(benchCat, "kernel.exec.natural"), 1, false)
		addMed("kernel.exec_us.w1", probes.get(benchCat, "kernel.exec.w1"), 1, false)
		spans := solveSpans[m.in.Name]
		all = append(all, spans...)
		ru := summarize(spans, nil)
		addMed("solver.iter_self_us", ru.get("solver", "cg.iter"), 1, true)
		block := summarize(spans, func(s *span) bool { return s.Name == "exec.block" && s.Args["n"] == blockN })
		addMed("spmv.block8_us_per_rhs", block.get("spmv", "exec.block"), blockN, false)
		// The only kernel multiplies among the solves are the ones
		// inside kernel.Plan.CG on the reordered plan.
		if st := ru.get("kernel", "exec"); st != nil {
			addMed("kernel.exec_us", st, 1, false)
			nnz += float64(m.a.NNZ())
			bytesMoved += float64(12*m.a.NNZ() + 8*m.a.Rows + 8*m.a.Cols)
		}
	}
	for k, v := range sums {
		layers.add(k, v)
	}
	if have["kernel.exec_us"] {
		sec := sums["kernel.exec_us"] / 1e6
		layers.add("kernel.gflops", 2*nnz/sec/1e9)
		layers.add("kernel.gbps_computed", bytesMoved/sec/1e9)
	}
	ru := summarize(all, nil)
	for _, ph := range []string{"expand", "compute", "fold"} {
		if v, ok := ru.selfS("spmv", ph); ok {
			layers.add("spmv."+ph+"_s", v)
		}
	}
	var words, msgs int
	for _, m := range ms {
		ctr := m.sess.Counters()
		words, msgs = words+ctr.TotalWords(), msgs+ctr.TotalMessages()
	}
	layers.add("spmv.words", float64(words))
	layers.add("spmv.messages", float64(msgs))
	layers.add("solver.iters", float64(rs.iters))
	layers.add("solver.block_iters", float64(rs.blockIters))
	layers.add("solver.allreduce_words", float64(rs.allreduce))
}

// addProbe measures host.stream_gbps with the STREAM-style triad when
// arrays of four times the last-level cache fit the host's memory, and
// then reports kernel.bw_frac. Both are report lines, not gated metrics.
func (o *outcome) addProbe() {
	llc, avail := llcBytes(), memAvailable()
	arr, fits := streamProbe(llc, avail)
	if !fits {
		o.note("stream probe skipped: 3 arrays of %d MiB (4× the %d MiB LLC) exceed a quarter of the %d MiB available; kernel.bw_frac omitted",
			arr>>20, llc>>20, avail>>20)
		return
	}
	gbps := triadGBps(int(arr/8), 5)
	o.named("host.stream_gbps", gbps, "GB/s", fmt.Sprintf("triad, 3 arrays of %d MiB, LLC %d MiB", arr>>20, llc>>20))
	if k, ok := o.layers["kernel.gbps_computed"]; ok {
		o.named("kernel.bw_frac", k/gbps, "ratio", "kernel.gbps_computed / host.stream_gbps")
	}
}
