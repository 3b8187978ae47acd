package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"finegrain"
	"finegrain/internal/mmio"
	"finegrain/internal/obs"
	"finegrain/internal/sparse"
)

var (
	pipelineMatrices = []string{"nl", "ken-11", "finan512"}
	pipelineModels   = []string{"finegrain", "medium_grain", "hypergraph", "graph"}
	// exactModels are the models whose cutsize is the communication
	// volume (connectivity−1); the graph model's edge cut only
	// approximates it.
	exactModels = map[string]bool{"finegrain": true, "medium_grain": true, "hypergraph": true}
	// twoD are the models that split rows, so every part can be held
	// within ε of balance; the 1D models may exceed it by one row.
	twoD = map[string]bool{"finegrain": true, "medium_grain": true}
)

const (
	pipelineK = 64
	partSeed  = 1    // partitioner seed of every decomposition
	eps       = 0.03 // allowed imbalance of every decomposition
)

// cellTimes are the stages of one pipeline cell.
type cellTimes struct{ ingest, decompose, open, multiply time.Duration }

func (t cellTimes) setup() time.Duration { return t.ingest + t.decompose + t.open }
func (t cellTimes) total() time.Duration { return t.setup() + t.multiply }

// cellResult is what one cell produced besides its times.
type cellResult struct {
	times    cellTimes
	volume   int
	messages int
	dec      *finegrain.Decomposition
}

// runCell is one cold-path cell: .mtx.gz bytes → mmio.ReadCSRStream →
// finegrain.DecomposeModel → finegrain.NewSession → one verification
// multiply, followed by the cell's correctness checks. A non-nil tr
// records the library's spans and the benchmark's own around each call.
func runCell(ck *checker, in input, model string, k int, o finegrain.Options, tr *obs.Trace) (*cellResult, error) {
	o.Trace = tr
	o.Seed, o.Eps = partSeed, eps
	var t cellTimes
	label := in.Name + "/" + model

	t0 := time.Now()
	sp := tr.Begin(benchCat, "mmio.read").Arg("bytes", int64(len(in.Bytes)))
	a, _, err := mmio.ReadCSRStream(bytes.NewReader(in.Bytes), mmio.StreamOptions{})
	sp.End()
	t1 := time.Now()
	if !ck.op("ingest "+label, err) {
		return nil, err
	}
	sp = tr.Begin(benchCat, "finegrain.decompose")
	dec, err := finegrain.DecomposeModel(model, a, k, o)
	sp.End()
	t2 := time.Now()
	if !ck.op("decompose "+label, err) {
		return nil, err
	}
	sp = tr.Begin(benchCat, "finegrain.session")
	sess, err := finegrain.NewSession(dec, finegrain.SessionOptions{Trace: tr})
	sp.End()
	t3 := time.Now()
	if !ck.op("session "+label, err) {
		return nil, err
	}
	defer sess.Close()
	x := testVector(a.Cols, uint64(a.NNZ()))
	y := make([]float64, a.Rows)
	sp = tr.Begin(benchCat, "spmv.multiply")
	err = sess.Multiply(x, y, finegrain.ExecOptions{})
	sp.End()
	t4 := time.Now()
	if !ck.op("multiply "+label, err) {
		return nil, err
	}
	t = cellTimes{ingest: t1.Sub(t0), decompose: t2.Sub(t1), open: t3.Sub(t2), multiply: t4.Sub(t3)}

	checkSession(ck, label, a, dec, sess, x, y, exactModels[model])
	ctr := sess.Counters()
	return &cellResult{times: t, volume: ctr.TotalWords(), messages: ctr.TotalMessages(), dec: dec}, nil
}

// checkSession runs the checks every compiled decomposition must pass:
// the multiply matches the serial kernel, the executed words and
// messages match the analyzer (and, for exact models, the cutsize), and
// the load stays within ε.
func checkSession(ck *checker, label string, a *sparse.CSR, dec *finegrain.Decomposition, sess *finegrain.Session, x, y []float64, exact bool) {
	want := make([]float64, a.Rows)
	a.MulVec(x, want)
	i, ok := multiplyMatches(y, want)
	ck.check("multiply", ok, "%s: y[%d]=%g, serial %g", label, i, at(y, i), at(want, i))
	ctr := sess.Counters()
	ck.check("words", ctr.TotalWords() == dec.Stats.TotalVolume,
		"%s: executed %d words, analyzer %d", label, ctr.TotalWords(), dec.Stats.TotalVolume)
	ck.check("messages", ctr.TotalMessages() == dec.Stats.TotalMessages,
		"%s: executed %d messages, analyzer %d", label, ctr.TotalMessages(), dec.Stats.TotalMessages)
	if exact {
		ck.check("cutsize", dec.Cutsize == dec.Stats.TotalVolume,
			"%s: cutsize %d, volume %d", label, dec.Cutsize, dec.Stats.TotalVolume)
	}
	maxRow := 0
	if !twoD[dec.Model] {
		for i := 0; i < a.Rows; i++ {
			maxRow = max(maxRow, a.RowNNZ(i))
		}
	}
	ck.check("balance", balanced(dec.Stats.Loads, eps, maxRow),
		"%s: imbalance %.3f%% > %.1f%% plus one row of %d nonzeros", label, dec.Stats.ImbalancePct, 100*eps, maxRow)
}

func at(v []float64, i int) float64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// testVector is a deterministic vector with entries in [0.5, 1.5).
func testVector(n int, salt uint64) []float64 {
	x := make([]float64, n)
	s := mix(salt, 0x5eed)
	for i := range x {
		s = mix(s, uint64(i))
		x[i] = 0.5 + float64(s>>11)/float64(1<<53)
	}
	return x
}

type pipelineCell struct {
	in    input
	model string
}

// runPipeline is the cold path a sparsepart user pays: every matrix ×
// model cell from bytes to a verified session, in interleaved rounds so
// host noise hits every cell alike.
func runPipeline(cfg config, ck *checker) (*outcome, error) {
	gen := time.Now()
	var ins []input
	for i, name := range pipelineMatrices {
		in, err := generate(name, cfg.scale, mix(cfg.seed, uint64(i)), false)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	var cells []pipelineCell
	for _, in := range ins {
		for _, m := range pipelineModels {
			cells = append(cells, pipelineCell{in, m})
		}
	}
	out := newOutcome(ins)
	out.note("inputs generated in %.2fs", time.Since(gen).Seconds())
	per := make([]samples, len(cells)) // per cell: setup, decompose, total
	for i := range per {
		per[i] = samples{}
	}
	volume := make([]int, len(cells))
	messages := make([]int, len(cells))
	layers := samples{}
	var traced, untraced time.Duration

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minRounds := 2
	if cfg.trace {
		minRounds = 1
	}
	rounds := 0
	var last time.Duration
	for rounds < minRounds || time.Since(start)+last <= budget {
		r0 := time.Now()
		round := layerRound{}
		for j := range cells {
			ci := (j + rounds*5) % len(cells) // rotate the order each round
			c := cells[ci]
			// A traced run pairs every cell with a traced repeat, taking
			// turns at going first so neither side always finds the
			// caches warm.
			var tr *obs.Trace
			var tres *cellResult
			runTraced := func() (err error) {
				tr = obs.New()
				tres, err = runCell(ck, c.in, c.model, pipelineK, finegrain.Options{CollectStats: true}, tr)
				return err
			}
			tracedFirst := cfg.trace && (j+rounds)%2 == 1
			if tracedFirst {
				if err := runTraced(); err != nil {
					return nil, err
				}
			}
			res, err := runCell(ck, c.in, c.model, pipelineK, finegrain.Options{}, nil)
			if err != nil {
				return nil, err
			}
			if rounds == 0 {
				volume[ci], messages[ci] = res.volume, res.messages
			} else {
				ck.check("deterministic", volume[ci] == res.volume && messages[ci] == res.messages,
					"%s/%s: volume %d→%d, messages %d→%d", c.in.Name, c.model, volume[ci], res.volume, messages[ci], res.messages)
			}
			per[ci].add("setup", res.times.setup().Seconds())
			per[ci].add("decompose", res.times.decompose.Seconds())
			per[ci].add("total", res.times.total().Seconds())
			if cfg.trace {
				if !tracedFirst {
					if err := runTraced(); err != nil {
						return nil, err
					}
				}
				traced += tres.times.total()
				untraced += res.times.total()
				if err := round.addCell(tr, c, len(c.in.Bytes), tres.dec); err != nil {
					return nil, err
				}
			}
		}
		if cfg.trace {
			if err := round.addSerial(ck, ins[0]); err != nil {
				return nil, err
			}
			round.flush(layers)
		}
		rounds++
		last = time.Since(r0)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	var setup, decompose, total float64
	byModel := map[string]float64{}
	for i, c := range cells {
		s, _ := per[i].median("setup")
		d, _ := per[i].median("decompose")
		t, _ := per[i].median("total")
		setup, decompose, total = setup+s, decompose+d, total+t
		byModel[c.model] += d
	}
	var vol, msg int
	for i := range cells {
		vol, msg = vol+volume[i], msg+messages[i]
	}
	out.e2e = map[string]float64{
		"setup_s":      setup,
		"decompose_s":  decompose,
		"ops_per_s":    float64(len(cells)) / total,
		"volume_words": float64(vol),
		"messages":     float64(msg),
		"alloc_mb":     float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(rounds),
	}
	out.note("rounds=%d cells=%d timed=%.1fs", rounds, len(cells), elapsed.Seconds())
	out.named("setup_s", setup, "s", "bytes → ready session, summed over cells")
	for _, m := range pipelineModels {
		out.named("decompose_s."+m, byModel[m], "s", "DecomposeModel summed over the three matrices")
	}
	out.named("volume_words", float64(vol), "words", "one multiply, summed over cells")
	out.named("messages", float64(msg), "count", "one multiply, summed over cells")
	out.named("alloc_mb", out.e2e["alloc_mb"], "MB", "TotalAlloc per round")
	if cfg.trace {
		out.layers = layers.medians()
		if untraced > 0 {
			out.layers["obs.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
		}
	}
	return out, nil
}

// layerRound accumulates one traced pipeline round's per-layer sums.
type layerRound struct {
	sums      map[string]float64
	fmMoves   map[string]int
	fmRollbks map[string]int
	readBytes int
}

func (r *layerRound) add(name string, v float64, ok bool) {
	if !ok {
		return
	}
	if r.sums == nil {
		r.sums = map[string]float64{}
	}
	r.sums[name] += v
}

// addCell rolls up one traced cell: the library's decompose phases by
// model, and the benchmark's own ingest span.
func (r *layerRound) addCell(tr *obs.Trace, c pipelineCell, nbytes int, dec *finegrain.Decomposition) error {
	spans, err := spansOf(tr)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", c.in.Name, c.model, err)
	}
	ru := summarize(spans, nil)
	m := c.model
	read, ok := ru.totalS(benchCat, "mmio.read")
	r.add("mmio.read_s", read, ok)
	r.readBytes += nbytes
	decomposeLayers(ru, m, func(metric string, v float64) { r.add(metric, v, true) })
	if ps := dec.PartStats; ps != nil {
		if r.fmMoves == nil {
			r.fmMoves, r.fmRollbks = map[string]int{}, map[string]int{}
		}
		r.fmMoves[m] += ps.FMMoves
		r.fmRollbks[m] += ps.FMRollbacks
	}
	return nil
}

// addSerial decomposes the first matrix with the fine-grain model on one
// partitioner goroutine: the single-thread baseline hgpart.serial_s.
func (r *layerRound) addSerial(ck *checker, in input) error {
	tr := obs.New()
	if _, err := runCell(ck, in, "finegrain", pipelineK, finegrain.Options{Workers: 1}, tr); err != nil {
		return err
	}
	spans, err := spansOf(tr)
	if err != nil {
		return err
	}
	v, ok := summarize(spans, nil).totalS("finegrain", "partition")
	r.add("hgpart.serial_s", v, ok)
	return nil
}

// flush moves the round's sums and ratios into the per-round samples.
func (r *layerRound) flush(s samples) {
	for k, v := range r.sums {
		s.add(k, v)
	}
	if read := r.sums["mmio.read_s"]; read > 0 {
		s.add("mmio.mb_per_s", float64(r.readBytes)/1e6/read)
	}
	for m, moves := range r.fmMoves {
		if moves > 0 {
			s.add("hgpart.fm_kept_frac."+m, float64(moves-r.fmRollbks[m])/float64(moves))
		}
	}
}
