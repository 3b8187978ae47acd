package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finegrain"
	"finegrain/internal/mmio"
	"finegrain/internal/obs"
	"finegrain/internal/partserver"
	"finegrain/internal/sparse"
)

var (
	// serveMatrices are the upload families with their catalog scales:
	// a few thousand rows each, so one job takes tens of milliseconds.
	serveMatrices = []struct {
		name  string
		scale float64
	}{{"sherman3", 0.5}, {"bcspwr10", 0.5}, {"nl", 0.1}, {"ken-11", 0.15}}
	serveModels = []string{"finegrain", "medium_grain"}
)

const (
	serveK           = 16
	serveClients     = 2  // closed-loop clients
	serveRate        = 26 // uploads per second the script is sized for
	serveMinOps      = 64 // shortest script
	serveMinRun      = 30 // operations every run completes, whatever --seconds
	serveRepeatEvery = 5  // every fifth upload repeats earlier content
	serveSolveEvery  = 2  // every other upload is followed by a session solve
	serveTrials      = 41 // server start-ups measured for setup_s
	serveVolumeSet   = 24 // distinct uploads volume_words and messages sum over
	pollEvery        = 5 * time.Millisecond
)

// serveOp is one client operation of the script: upload content (as
// model), wait for the job, then optionally solve nrhs right-hand sides
// through a session.
type serveOp struct {
	content int
	nrhs    int
	solve   []byte // solve request body, marshalled before the clock
}

// serveContent is one distinct upload.
type serveContent struct {
	input
	model string
	group int // (family, model) pair
}

// serveGroups is the number of (family, model) pairs distinct uploads
// cycle through.
var serveGroups = len(serveMatrices) * len(serveModels)

// serveUpload generates distinct upload d: family d mod 4, model by
// (d/4) mod 2, so every run of eight consecutive distinct uploads covers
// each (family, model) pair once.
func serveUpload(cfg config, d int) (serveContent, error) {
	fam := serveMatrices[d%len(serveMatrices)]
	in, err := generate(fam.name, fam.scale*cfg.scale, mix(cfg.seed, uint64(1000+d)), true)
	model := serveModels[(d/len(serveMatrices))%len(serveModels)]
	return serveContent{in, model, d % serveGroups}, err
}

// serveScript generates the distinct uploads and the operation sequence
// the clients share, sized for seconds of traffic. The mix is fixed:
// every fifth upload repeats the content of a seeded random earlier one,
// every other upload is followed by a session solve of 1, 2, …, 8 RHS in
// turn; the seed chooses the matrices and the repeated contents.
func serveScript(cfg config) ([]serveContent, []serveOp, error) {
	nops := max(serveMinOps, int(cfg.seconds*serveRate))
	rnd := mix(cfg.seed, 0xc11e)
	var contents []serveContent
	ops := make([]serveOp, 0, nops)
	for i := 0; i < nops; i++ {
		op := serveOp{}
		if i%serveRepeatEvery == serveRepeatEvery-1 {
			rnd = mix(rnd, uint64(i))
			op.content = ops[rnd%uint64(len(ops))].content
		} else {
			sc, err := serveUpload(cfg, len(contents))
			if err != nil {
				return nil, nil, err
			}
			op.content = len(contents)
			contents = append(contents, sc)
		}
		if i%serveSolveEvery == 0 {
			op.nrhs = 1 + (i/serveSolveEvery)%blockN
			n := contents[op.content].N
			rhs := make([][]float64, op.nrhs)
			for v := range rhs {
				rhs[v] = testVector(n, uint64(i*blockN+v))
			}
			body, err := json.Marshal(map[string]any{"rhs": rhs, "tol": solveTol, "include_x": true})
			if err != nil {
				return nil, nil, err
			}
			op.solve = body
		}
		ops = append(ops, op)
	}
	return contents, ops, nil
}

// server is one in-process partition server on loopback.
type server struct {
	ps   *partserver.Server
	http *http.Server
	url  string
	dir  string
	done chan error
}

func startServer(dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One partitioner goroutine per job: the two job workers then fill
	// the host's CPUs without oversubscribing them.
	ps, err := partserver.New(partserver.Config{StoreDir: dir, PartWorkers: 1})
	if err != nil {
		return nil, fmt.Errorf("starting partition server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ps.Shutdown(context.Background())
		return nil, err
	}
	s := &server{ps: ps, http: &http.Server{Handler: ps.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the partition server down, cancelling
// running jobs, waits for both, and removes the store directory.
func (s *server) stop() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // no grace period: running jobs are cancelled at once
	err := s.http.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if perr := s.ps.Shutdown(ctx); perr != nil && err == nil && !errors.Is(perr, context.Canceled) {
		err = perr
	}
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// jobStatus is the part of the server's job status the benchmark reads.
type jobStatus struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Error       string    `json:"error"`
	CacheHit    bool      `json:"cache_hit"`
	Coalesced   bool      `json:"coalesced"`
	CreatedAt   time.Time `json:"created_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	Cutsize     int       `json:"cutsize"`
	TotalVolume int       `json:"total_volume"`
}

type solveReply struct {
	Results []struct {
		Converged bool      `json:"converged"`
		X         []float64 `json:"x"`
	} `json:"results"`
}

// client issues the benchmark's HTTP calls and decodes the replies.
type client struct {
	http *http.Client
	url  string
}

func (c *client) do(method, path, ctype string, body []byte, want int, out any) (int, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != want && !(want == http.StatusAccepted && resp.StatusCode == http.StatusOK) {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func uploadPath(model string) string {
	return fmt.Sprintf("/v1/jobs?model=%s&k=%d&seed=%d", model, serveK, partSeed)
}

// upload submits one raw .mtx.gz and returns the status the server
// answered with.
func (c *client) upload(sc serveContent) (jobStatus, int, error) {
	var st jobStatus
	code, err := c.do(http.MethodPost, uploadPath(sc.model), "application/octet-stream", sc.Bytes, http.StatusAccepted, &st)
	return st, code, err
}

// wait polls a job until it leaves the queued and running states.
func (c *client) wait(st jobStatus) (jobStatus, error) {
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollEvery)
		if _, err := c.do(http.MethodGet, "/v1/jobs/"+st.ID, "", nil, http.StatusOK, &st); err != nil {
			return st, err
		}
	}
	if st.State != "done" {
		return st, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}

// serveRecord is what one completed operation left for the checks and
// metrics.
type serveRecord struct {
	op       serveOp
	model    string
	status   jobStatus
	jobMS    float64
	solveMS  float64 // 0 when the operation did not solve
	x        [][]float64
	hit      bool
	computed bool // the job ran the partitioner in this process
}

// runServe drives an in-process partition server with a closed loop of
// clients uploading raw .mtx.gz matrices, waiting for their jobs, and
// solving through sessions on some of them.
func runServe(cfg config, ck *checker) (*outcome, error) {
	base := filepath.Join(cfg.tmpDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(base)
	hc := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer hc.CloseIdleConnections()

	// setup_s: server start → first accepted request, on a fresh store,
	// measured before the script's inputs fill the heap.
	first, err := serveUpload(cfg, 0)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for t := 0; t < serveTrials; t++ {
		t0 := time.Now()
		s, err := startServer(filepath.Join(base, fmt.Sprintf("trial-%d", t)))
		if err != nil {
			return nil, err
		}
		_, code, err := (&client{hc, s.url}).upload(first)
		setups = append(setups, time.Since(t0).Seconds())
		ck.op("setup upload", err)
		ck.check("setup accepted", code == http.StatusAccepted, "first upload on an empty store answered %d", code)
		if err := s.stop(); err != nil {
			return nil, err
		}
	}

	gen := time.Now()
	contents, ops, err := serveScript(cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome(nil)
	out.note("inputs generated in %.2fs", time.Since(gen).Seconds())
	out.note("start-ups (s): %.4f", sortedCopy(setups))
	var nnzLo, nnzHi, bytesTotal int
	for i, c := range contents {
		if i == 0 || c.NNZ < nnzLo {
			nnzLo = c.NNZ
		}
		nnzHi = max(nnzHi, c.NNZ)
		bytesTotal += len(c.Bytes)
	}
	out.note("script: %d uploads, %d distinct matrices (nnz %d–%d, %d mtx.gz bytes in all), %d clients, K=%d",
		len(ops), len(contents), nnzLo, nnzHi, bytesTotal, serveClients, serveK)
	for i := 0; i < min(serveVolumeSet, len(contents)); i++ {
		out.inputs = append(out.inputs, contents[i].input)
	}

	srv, err := startServer(filepath.Join(base, "main"))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	cl := &client{hc, srv.url}

	records := make([]*serveRecord, 0, len(ops))
	var mu sync.Mutex
	var throttled, uploads atomic.Int64
	var cursor atomic.Int64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The first serveMinRun operations always run: they hold
				// the volume set and the first repeats.
				i := int(cursor.Add(1) - 1)
				if i >= len(ops) || (i >= serveMinRun && time.Since(start) >= budget) {
					return
				}
				uploads.Add(1)
				rec, code := runOp(ck, cl, contents, ops[i])
				if code == http.StatusTooManyRequests {
					throttled.Add(1)
				}
				if rec != nil {
					mu.Lock()
					records = append(records, rec)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if int(cursor.Load()) >= len(ops) {
		out.note("script exhausted before --seconds; raise serveRate")
	}

	// Everything below runs after the clock: correctness checks against
	// the library, then (traced runs) the job traces.
	refs, vol, msg := checkServe(ck, contents, records)

	var jobMS, hitMS, solveMS, runS, queueMS []float64
	runBy := samples{} // server run time by (family, model) group
	hits := 0
	for _, r := range records {
		jobMS = append(jobMS, r.jobMS)
		if r.hit {
			hits++
			hitMS = append(hitMS, r.jobMS)
		}
		if r.computed {
			run := r.status.FinishedAt.Sub(r.status.StartedAt).Seconds()
			runS = append(runS, run)
			runBy.add(fmt.Sprint(contents[r.op.content].group), run)
			queueMS = append(queueMS, float64(r.status.StartedAt.Sub(r.status.CreatedAt).Microseconds())/1e3)
		}
		if r.solveMS > 0 {
			solveMS = append(solveMS, r.solveMS)
		}
	}
	done := float64(len(records))
	out.e2e = map[string]float64{
		"setup_s":      median(setups),
		"decompose_s":  sumValues(runBy.medians()),
		"ops_per_s":    done / elapsed.Seconds(),
		"volume_words": float64(vol),
		"messages":     float64(msg),
		"alloc_mb":     float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / max(done, 1),
	}
	out.note("timed=%.1fs uploads=%d done=%d hits=%d solves=%d throttled=%d",
		elapsed.Seconds(), uploads.Load(), len(records), hits, len(solveMS), throttled.Load())
	out.named("setup_s", median(setups), "s", "server start → first accepted upload")
	out.tails("job_ms", jobMS, "upload sent → client sees done")
	out.tails("solve_ms", solveMS, "session solve request → full response")
	out.named("alloc_mb", out.e2e["alloc_mb"], "MB", "TotalAlloc per completed upload, whole process")
	if cfg.trace {
		layers, err := serveLayers(cl, records)
		if err != nil {
			return nil, err
		}
		layers.add("partserver.queue_wait_ms.p50", median(queueMS))
		layers.add("partserver.run_ms.p50", 1e3*median(runS))
		if len(hitMS) > 0 {
			layers.add("partserver.hit_ms.p50", median(hitMS))
		}
		n := float64(uploads.Load())
		layers.add("partserver.hit_frac", float64(hits)/n)
		layers.add("partserver.throttled_frac", float64(throttled.Load())/n)
		for k, v := range refs.layers() {
			layers.add(k, v)
		}
		out.layers = layers.medians()
	}
	return out, nil
}

// runOp performs one script operation for one client. It returns the
// record of a completed operation (nil on failure) and the upload's
// HTTP status.
func runOp(ck *checker, cl *client, contents []serveContent, op serveOp) (*serveRecord, int) {
	sc := contents[op.content]
	label := fmt.Sprintf("upload %s/%s", sc.Name, sc.model)
	t0 := time.Now()
	st, code, err := cl.upload(sc)
	if !ck.op(label, err) {
		return nil, code
	}
	hit := st.CacheHit || st.Coalesced
	st, err = cl.wait(st)
	if !ck.op(label+" job", err) {
		return nil, code
	}
	rec := &serveRecord{op: op, model: sc.model, status: st, jobMS: msSince(t0), hit: hit, computed: !hit}
	if op.nrhs == 0 {
		return rec, code
	}
	var sess struct {
		ID string `json:"id"`
	}
	if _, err := cl.do(http.MethodPost, "/v1/jobs/"+st.ID+"/sessions", "", nil, http.StatusCreated, &sess); !ck.op("session open", err) {
		return nil, code
	}
	var reply solveReply
	s1 := time.Now()
	_, err = cl.do(http.MethodPost, "/v1/sessions/"+sess.ID+"/solve", "application/json", op.solve, http.StatusOK, &reply)
	rec.solveMS = msSince(s1)
	if !ck.op("session solve", err) {
		return nil, code
	}
	_, err = cl.do(http.MethodDelete, "/v1/sessions/"+sess.ID, "", nil, http.StatusOK, nil)
	ck.op("session close", err)
	for v, r := range reply.Results {
		ck.check("converged", r.Converged, "%s: rhs %d not converged", label, v)
		rec.x = append(rec.x, r.X)
	}
	ck.check("solve results", len(reply.Results) == op.nrhs, "%s: %d results for %d rhs", label, len(reply.Results), op.nrhs)
	return rec, code
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// serveRef is the library's own reading and decomposition of one
// distinct upload.
type serveRef struct {
	a                *sparse.CSR
	dec              *finegrain.Decomposition
	volume, messages int
	readS            float64
	bytes            int
}

// referenceAll reads and decomposes the given distinct uploads with the
// library, one upload per goroutine at a time on GOMAXPROCS goroutines,
// each partitioning on one goroutine (the result does not depend on it).
func referenceAll(ck *checker, contents []serveContent, distinct []int) serveRefs {
	refs := make([]*serveRef, len(distinct))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(distinct) {
					return
				}
				refs[i] = reference(ck, contents[distinct[i]])
			}
		}()
	}
	wg.Wait()
	out := serveRefs{}
	for i, c := range distinct {
		if refs[i] != nil {
			out[c] = refs[i]
		}
	}
	return out
}

func reference(ck *checker, sc serveContent) *serveRef {
	tr := obs.New()
	sp := tr.Begin(benchCat, "mmio.read")
	a, _, err := mmio.ReadCSRStream(bytes.NewReader(sc.Bytes), mmio.StreamOptions{})
	sp.End()
	if !ck.op("reference ingest "+sc.Name, err) {
		return nil
	}
	ref := &serveRef{a: a, bytes: len(sc.Bytes)}
	if spans, err := spansOf(tr); err == nil {
		ref.readS, _ = summarize(spans, nil).totalS(benchCat, "mmio.read")
	}
	dec, err := finegrain.DecomposeModel(sc.model, a.EnsureNonemptyRowsCols(), serveK,
		finegrain.Options{Seed: partSeed, Eps: eps, Workers: 1})
	if !ck.op("reference decompose "+sc.Name, err) {
		return nil
	}
	ref.dec = dec
	ref.volume, ref.messages = dec.Stats.TotalVolume, dec.Stats.TotalMessages
	return ref
}

type serveRefs map[int]*serveRef

// layers reports the ingest layer from the benchmark's own reads of
// every distinct upload: median seconds per upload and MB/s overall.
func (r serveRefs) layers() map[string]float64 {
	var reads []float64
	var secs float64
	var n int
	for _, ref := range r {
		reads = append(reads, ref.readS)
		secs += ref.readS
		n += ref.bytes
	}
	if len(reads) == 0 || secs == 0 {
		return nil
	}
	return map[string]float64{"mmio.read_s": median(reads), "mmio.mb_per_s": float64(n) / 1e6 / secs}
}

// checkServe compares every completed job with the library's
// DecomposeModel on the same matrix, model, K and seed, and checks every
// session solve's true residual. It returns the library result of every
// distinct upload, and the volume and messages summed over the volume
// set: the first serveVolumeSet distinct uploads, which must complete.
func checkServe(ck *checker, contents []serveContent, records []*serveRecord) (refs serveRefs, volume, messages int) {
	var distinct []int
	seen := map[int]bool{}
	for _, r := range records {
		if c := r.op.content; !seen[c] {
			seen[c] = true
			distinct = append(distinct, c)
		}
	}
	refs = referenceAll(ck, contents, distinct)
	for _, r := range records {
		c := r.op.content
		sc := contents[c]
		ref := refs[c]
		if ref == nil || ref.dec == nil {
			continue
		}
		dec, a := ref.dec, ref.a
		ck.check("serve cutsize", r.status.Cutsize == dec.Cutsize && r.status.TotalVolume == dec.Stats.TotalVolume,
			"%s/%s job %s: cutsize %d volume %d, library %d and %d", sc.Name, sc.model, r.status.ID,
			r.status.Cutsize, r.status.TotalVolume, dec.Cutsize, dec.Stats.TotalVolume)
		for v, x := range r.x {
			b := testVectorFor(r, v, a.Rows)
			res := relResidual(a.MulVec, x, b)
			ck.check("residual", len(x) == a.Rows && res <= solveTol, "%s job %s rhs %d: true residual %.3g", sc.Name, r.status.ID, v, res)
		}
	}
	for c := 0; c < min(serveVolumeSet, len(contents)); c++ {
		ref, ok := refs[c]
		if ck.check("volume set", ok, "distinct upload %d did not complete", c) {
			volume, messages = volume+ref.volume, messages+ref.messages
		}
	}
	return refs, volume, messages
}

// testVectorFor rebuilds the v-th right-hand side of a record's solve.
func testVectorFor(r *serveRecord, v, n int) []float64 {
	var req struct {
		RHS [][]float64 `json:"rhs"`
	}
	if json.Unmarshal(r.op.solve, &req) != nil || v >= len(req.RHS) {
		return make([]float64, n)
	}
	return req.RHS[v]
}

// serveLayers fetches the trace of every job that ran the partitioner,
// after the clock, and rolls up its spans per job.
func serveLayers(cl *client, records []*serveRecord) (samples, error) {
	layers := samples{}
	seen := map[string]bool{}
	for _, r := range records {
		if !r.computed || seen[r.status.ID] {
			continue
		}
		seen[r.status.ID] = true
		req, err := http.NewRequest(http.MethodGet, cl.url+"/v1/jobs/"+r.status.ID+"/trace", nil)
		if err != nil {
			return nil, err
		}
		resp, err := cl.http.Do(req)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		spans, err := parseChrome(raw)
		if err != nil {
			return nil, fmt.Errorf("job %s trace: %w", r.status.ID, err)
		}
		ru := summarize(spans, nil)
		decomposeLayers(ru, r.model, layers.add)
		for _, ph := range []string{"expand", "compute", "fold"} {
			if v, ok := ru.selfS("spmv", ph); ok {
				layers.add("spmv."+ph+"_s", v)
			}
		}
		if st := ru.get("partserver", "session.open"); st != nil {
			for _, d := range st.durs {
				layers.add("partserver.session_open_ms.p50", d/1e3)
			}
		}
		if st := ru.get("partserver", "store.save"); st != nil {
			for _, d := range st.durs {
				layers.add("store.save_ms.p50", d/1e3)
			}
		}
	}
	return layers, nil
}
