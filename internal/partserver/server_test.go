package partserver

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	finegrain "finegrain"
	"finegrain/internal/core"
	"finegrain/internal/matgen"
	"finegrain/internal/mmio"
	"finegrain/internal/spmv"
)

// testServer builds a Server plus an httptest front end and tears both
// down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.terminal() {
			if st.State != JobDone {
				t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
			}
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, buf.String())
	return 0
}

const e2eBody = `{"catalog":"ken-11","scale":0.05,"model":"finegrain","k":16,"seed":1}`

// TestEndToEnd is the acceptance scenario: submit a catalog job, poll
// to completion, fetch the decomposition, execute it on the SpMV
// simulator, and check the exactness invariant (simulated words ==
// connectivity−1 cutsize). A second identical POST is a cache hit and
// the metrics reflect exactly one computation.
func TestEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	st, code := postJSON(t, ts, e2eBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	if st.State != JobQueued || st.CacheHit {
		t.Fatalf("fresh submission: state %s cacheHit %v", st.State, st.CacheHit)
	}
	st = pollDone(t, ts, st.ID)
	if st.Cutsize != st.TotalVolume {
		t.Fatalf("fine-grain exactness: cutsize %d != volume %d", st.Cutsize, st.TotalVolume)
	}

	// Fetch the decomposition and bind it to the same matrix the server
	// generated (catalog generation is deterministic).
	a, err := finegrain.Generate("ken-11", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/decomposition")
	if err != nil {
		t.Fatal(err)
	}
	asg, err := core.ReadAssignment(resp.Body, a)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Execute on simulated processors; the moved words must equal the
	// reported connectivity−1 cutsize.
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if err := pl.Exec(x, make([]float64, a.Rows), spmv.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	res := pl.Counters()
	if res.TotalWords() != st.Cutsize {
		t.Fatalf("simulator moved %d words, cutsize is %d", res.TotalWords(), st.Cutsize)
	}

	// The stats endpoint's analytic profile must agree with the
	// simulator on both words and message counts (the Table 2
	// invariant; guards spmv.Result against doc/behavior drift).
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats jobStatsResponse
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Comm == nil || stats.Partitioner == nil {
		t.Fatal("stats endpoint missing comm or partitioner record")
	}
	if res.TotalWords() != stats.Comm.TotalVolume {
		t.Fatalf("simulator words %d != analytic volume %d", res.TotalWords(), stats.Comm.TotalVolume)
	}
	if res.TotalMessages() != stats.Comm.TotalMessages {
		t.Fatalf("simulator messages %d != analytic messages %d", res.TotalMessages(), stats.Comm.TotalMessages)
	}

	// Identical request again: a cache hit, born done, same result.
	st2, code := postJSON(t, ts, e2eBody)
	if code != http.StatusOK {
		t.Fatalf("duplicate POST: %d", code)
	}
	if !st2.CacheHit || st2.State != JobDone {
		t.Fatalf("duplicate: cacheHit=%v state=%s", st2.CacheHit, st2.State)
	}
	if st2.Cutsize != st.Cutsize {
		t.Fatalf("cached cutsize %d != original %d", st2.Cutsize, st.Cutsize)
	}

	if hits := metricValue(t, ts, "partserver_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := metricValue(t, ts, "partserver_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
	if runs := metricValue(t, ts, "partserver_partitions_total"); runs != 1 {
		t.Fatalf("partition computations = %d, want 1", runs)
	}
}

// TestInflightCoalescing submits concurrent duplicates of one request
// while the only worker is held at the starting line, and asserts they
// all attach to the primary job: exactly one partition computation.
func TestInflightCoalescing(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	block := make(chan struct{})
	s.beforePartition = func(*job) { <-block }

	primary, code := postJSON(t, ts, e2eBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}

	const dups = 8
	var wg sync.WaitGroup
	ids := make([]string, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(e2eBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK || !st.Coalesced {
				t.Errorf("duplicate %d: code %d coalesced %v", i, resp.StatusCode, st.Coalesced)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(block)
	for _, id := range ids {
		if id != primary.ID {
			t.Fatalf("duplicate attached to %s, want primary %s", id, primary.ID)
		}
	}
	pollDone(t, ts, primary.ID)

	if runs := metricValue(t, ts, "partserver_partitions_total"); runs != 1 {
		t.Fatalf("partition computations = %d, want exactly 1", runs)
	}
	if hits := metricValue(t, ts, "partserver_cache_hits_total"); hits != dups {
		t.Fatalf("cache hits = %d, want %d", hits, dups)
	}
}

// TestGracefulShutdown drains with one running and one queued job: the
// running job completes within the grace period, the queued job
// reports canceled, and Shutdown returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	s.beforePartition = func(*job) { <-gate }

	running, code := postJSON(t, ts, e2eBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST running: %d", code)
	}
	queued, code := postJSON(t, ts, `{"catalog":"ken-11","scale":0.05,"model":"finegrain","k":16,"seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST queued: %d", code)
	}

	// Wait until the worker has actually picked the first job up, so
	// the queue holds exactly the second.
	waitState(t, s, running.ID, JobRunning)

	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if st := jobState(s, running.ID); st != JobDone {
		t.Fatalf("running job ended %s, want done", st)
	}
	if st := jobState(s, queued.ID); st != JobCanceled {
		t.Fatalf("queued job ended %s, want canceled", st)
	}

	// Submissions after drain are refused.
	if _, code := postJSON(t, ts, e2eBody); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST: %d, want 503", code)
	}
}

// TestShutdownHardCancel expires the drain deadline immediately: the
// running job must be context-cancelled mid-search rather than block
// shutdown forever.
func TestShutdownHardCancel(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.beforePartition = func(*job) { <-s.baseCtx.Done() }

	running, code := postJSON(t, ts, e2eBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	waitState(t, s, running.ID, JobRunning)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain deadline already passed
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := jobState(s, running.ID); st != JobCanceled {
		t.Fatalf("running job ended %s, want canceled", st)
	}
}

func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if jobState(s, id) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func jobState(s *Server, id string) JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].state
}

// TestRawUploadAndGzipContentAddress uploads the same matrix twice —
// once plain, once gzip-encoded — and asserts the second submission is
// a cache hit: the key is the parsed matrix content, not the bytes on
// the wire.
func TestRawUploadAndGzipContentAddress(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	a, err := finegrain.Generate("bcspwr10", 0.03, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mm bytes.Buffer
	if err := mmio.Write(&mm, a); err != nil {
		t.Fatal(err)
	}

	url := ts.URL + "/v1/jobs?model=hypergraph&k=4&seed=3"
	resp, err := http.Post(url, "text/plain", bytes.NewReader(mm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload POST: %d", resp.StatusCode)
	}
	done := pollDone(t, ts, st.ID)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(mm.Bytes())
	zw.Close()
	req, err := http.NewRequest("POST", url, bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("Content-Encoding", "gzip")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st2 JobStatus
	err = json.NewDecoder(resp2.Body).Decode(&st2)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !st2.CacheHit {
		t.Fatalf("gzip re-upload: code %d cacheHit %v, want cache hit", resp2.StatusCode, st2.CacheHit)
	}
	if st2.Cutsize != done.Cutsize {
		t.Fatalf("cached cutsize %d != original %d", st2.Cutsize, done.Cutsize)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	bad := []string{
		`{"k":4}`,                  // no matrix source
		`{"catalog":"ken-11"}`,     // k missing
		`{"catalog":"nope","k":4}`, // unknown catalog
		`{"catalog":"ken-11","k":4,"model":"mystery"}`, // unknown model
		`{"catalog":"ken-11","matrix":"x","k":4}`,      // both sources
		`not json at all`,
	}
	for i, body := range bad {
		if _, code := postJSON(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("case %d: code %d, want 400", i, code)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/zzz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: %d, want 404", resp.StatusCode)
		}
	}
}

// TestCancelQueuedJob withdraws a queued job via DELETE while the only
// worker is busy, and checks the decomposition endpoint reports the
// cancellation rather than a result.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	block := make(chan struct{})
	s.beforePartition = func(*job) { <-block }

	first, _ := postJSON(t, ts, e2eBody)
	waitState(t, s, first.ID, JobRunning)
	queued, _ := postJSON(t, ts, `{"catalog":"ken-11","scale":0.05,"k":16,"seed":9}`)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != JobCanceled {
		t.Fatalf("after DELETE: %s, want canceled", st.State)
	}
	close(block)
	pollDone(t, ts, first.ID)

	dresp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/decomposition")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusGone {
		t.Fatalf("decomposition of canceled job: %d, want 410", dresp.StatusCode)
	}
}

// TestQueueFull bounds the FIFO: with the worker held and the queue
// occupied, a further distinct submission is refused with 429 and a
// Retry-After hint instead of queueing unboundedly.
func TestQueueFull(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	defer close(block)
	s.beforePartition = func(*job) { <-block }

	first, _ := postJSON(t, ts, e2eBody)
	waitState(t, s, first.ID, JobRunning)
	if _, code := postJSON(t, ts, `{"catalog":"ken-11","scale":0.05,"k":16,"seed":2}`); code != http.StatusAccepted {
		t.Fatalf("second POST: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"catalog":"ken-11","scale":0.05,"k":16,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if n := metricValue(t, ts, `partserver_throttled_total{reason="queue"}`); n != 1 {
		t.Fatalf("throttled{queue} = %d, want 1", n)
	}
}

// TestHealthz checks the liveness endpoint in both server states.
func TestHealthz(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
}

// TestSolveEndToEnd submits an SPD system, solves it through
// POST /v1/jobs/{id}/solve, and checks the solution against a serial
// multiply, the per-iteration communication accounting against the
// partition's cutsize, worker-count determinism, plan reuse across
// solves, and the solve metrics.
func TestSolveEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})

	// 5-point Laplacian plus identity: strictly SPD, so CG converges.
	a := matgen.Grid5Point(9, 9)
	coo := a.ToCOO()
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	a = coo.ToCSR()
	var mm bytes.Buffer
	if err := mmio.Write(&mm, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?model=finegrain&k=8&seed=2", "text/plain", bytes.NewReader(mm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts, st.ID)

	solve := func(body string) (solveResponse, int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr solveResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
		}
		return sr, resp.StatusCode
	}

	// Default solve: one all-ones right-hand side — the normalized
	// envelope always reports a batch, here of one.
	sr, code := solve(`{"include_x":true}`)
	if code != http.StatusOK {
		t.Fatalf("solve: %d", code)
	}
	if sr.NRHS != 1 || len(sr.Results) != 1 {
		t.Fatalf("scalar solve: nrhs %d with %d results, want a batch of one", sr.NRHS, len(sr.Results))
	}
	r0 := sr.Results[0]
	if !r0.Converged {
		t.Fatalf("did not converge in %d iterations (residual %g)", r0.Iterations, r0.Residual)
	}
	y := make([]float64, a.Rows)
	a.MulVec(r0.X, y)
	for i := range y {
		if math.Abs(y[i]-1) > 1e-6 {
			t.Fatalf("A·x at %d: %g, want 1", i, y[i])
		}
	}
	// Each iteration pays the plan's expand+fold volume, which for the
	// fine-grain model equals the connectivity−1 cutsize exactly.
	if r0.Iterations == 0 || sr.SpMVWords != r0.Iterations*done.Cutsize {
		t.Fatalf("spmv words %d over %d iterations, want %d per iteration", sr.SpMVWords, r0.Iterations, done.Cutsize)
	}
	if sr.WordsPerRHS != sr.SpMVWords {
		t.Fatalf("words_per_rhs %d != spmv_words %d for a batch of one", sr.WordsPerRHS, sr.SpMVWords)
	}

	// The first solve caches the compiled plan on the result.
	j, _ := s.getJob(st.ID)
	s.mu.Lock()
	res := j.result
	s.mu.Unlock()
	res.mu.Lock()
	pl1 := res.sess
	res.mu.Unlock()
	if pl1 == nil {
		t.Fatal("first solve did not cache a plan")
	}

	// Same solve at a different worker count: byte-identical solution on
	// the reused plan.
	sr2, code := solve(`{"include_x":true,"workers":3}`)
	if code != http.StatusOK {
		t.Fatalf("second solve: %d", code)
	}
	for i := range r0.X {
		if r0.X[i] != sr2.Results[0].X[i] {
			t.Fatalf("x[%d]: %v at default workers, %v at 3", i, r0.X[i], sr2.Results[0].X[i])
		}
	}
	res.mu.Lock()
	pl2 := res.sess
	res.mu.Unlock()
	if pl2 != pl1 {
		t.Fatal("second solve recompiled the plan")
	}

	if n := metricValue(t, ts, "partserver_solves_total"); n != 2 {
		t.Fatalf("solves metric = %d, want 2", n)
	}
	if n := metricValue(t, ts, "partserver_solve_seconds_count"); n != 2 {
		t.Fatalf("solve histogram count = %d, want 2", n)
	}

	// Validation: wrong-length b and unknown job.
	if _, code := solve(`{"b":[1,2,3]}`); code != http.StatusBadRequest {
		t.Fatalf("short b: %d, want 400", code)
	}
	if resp, err := http.Post(ts.URL+"/v1/jobs/zzz/solve", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job solve: %d, want 404", resp.StatusCode)
		}
	}

	// Solving a job that is still running is a conflict, not an error.
	gate := make(chan struct{})
	s.mu.Lock()
	s.beforePartition = func(*job) { <-gate }
	s.mu.Unlock()
	running, code2 := postJSON(t, ts, e2eBody)
	if code2 != http.StatusAccepted {
		t.Fatalf("POST running job: %d", code2)
	}
	waitState(t, s, running.ID, JobRunning)
	resp2, err := http.Post(ts.URL+"/v1/jobs/"+running.ID+"/solve", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	eb := decodeErrorBody(t, resp2)
	if resp2.StatusCode != http.StatusConflict || eb.Code != string(codeConflict) {
		t.Fatalf("solve on running job: %d code %q, want 409 Conflict", resp2.StatusCode, eb.Code)
	}
	close(gate)
	pollDone(t, ts, running.ID)
}

// decodeErrorBody reads a response's JSON error envelope and closes
// the body.
func decodeErrorBody(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return eb
}

// TestErrorEnvelopeCodes table-tests the machine-readable code each
// failure mode puts in the JSON error envelope.
func TestErrorEnvelopeCodes(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})

	nonSquare, _ := json.Marshal(map[string]any{
		"matrix": "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1\n2 3 2\n",
		"k":      2,
	})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"unknown model", `{"catalog":"ken-11","scale":0.05,"k":4,"model":"mystery"}`, 400, string(finegrain.BadModel)},
		{"k missing", `{"catalog":"ken-11","scale":0.05}`, 400, string(finegrain.BadK)},
		{"k negative", `{"catalog":"ken-11","scale":0.05,"k":-3}`, 400, string(finegrain.BadK)},
		{"catalog above paper size", `{"catalog":"finan512","scale":1000000,"k":2}`, 400, string(finegrain.BadMatrix)},
		{"negative scale", `{"catalog":"ken-11","scale":-1,"k":2}`, 400, string(finegrain.BadMatrix)},
		{"non-square matrix", string(nonSquare), 400, string(finegrain.BadMatrix)},
		{"both sources", `{"catalog":"ken-11","matrix":"x","k":4}`, 400, string(finegrain.BadMatrix)},
		{"malformed json", `{`, 400, string(codeBadRequest)},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		eb := decodeErrorBody(t, resp)
		if resp.StatusCode != tc.wantStatus || eb.Code != tc.wantCode {
			t.Errorf("%s: got %d code %q, want %d %q (error: %s)", tc.name, resp.StatusCode, eb.Code, tc.wantStatus, tc.wantCode, eb.Error)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	eb := decodeErrorBody(t, resp)
	if resp.StatusCode != http.StatusNotFound || eb.Code != string(codeNotFound) {
		t.Errorf("unknown job: %d code %q, want 404 NotFound", resp.StatusCode, eb.Code)
	}

	// A canceled job's status and result endpoints both carry the
	// Canceled code.
	gate := make(chan struct{})
	s.beforePartition = func(*job) { <-gate }
	first, _ := postJSON(t, ts, e2eBody)
	waitState(t, s, first.ID, JobRunning)
	queued, _ := postJSON(t, ts, `{"catalog":"ken-11","scale":0.05,"k":16,"seed":77}`)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st := getStatus(t, ts, queued.ID); st.ErrorCode != string(finegrain.Canceled) {
		t.Errorf("canceled job status error_code = %q, want Canceled", st.ErrorCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/decomposition")
	if err != nil {
		t.Fatal(err)
	}
	geb := decodeErrorBody(t, gresp)
	if gresp.StatusCode != http.StatusGone || geb.Code != string(finegrain.Canceled) {
		t.Errorf("canceled job decomposition: %d code %q, want 410 Canceled", gresp.StatusCode, geb.Code)
	}
	close(gate)
	pollDone(t, ts, first.ID)
}

// TestMaxNNZBoundsEveryUpload checks Config.MaxNNZ on both upload
// forms: a raw body and a JSON "matrix" string whose size line is over
// the cap are each rejected with 400 BadMatrix by the size-line check,
// before any entry is parsed or any CSR built, and no job is created.
func TestMaxNNZBoundsEveryUpload(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxNNZ: 4})
	mm := "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n1 2 1\n2 2 1\n3 1 1\n3 3 1\n"
	jsonBody, _ := json.Marshal(map[string]any{"matrix": mm, "k": 2})
	uploads := []struct{ name, url, ct, body string }{
		{"raw", ts.URL + "/v1/jobs?k=2", "text/plain", mm},
		{"json", ts.URL + "/v1/jobs", "application/json", string(jsonBody)},
	}
	for _, u := range uploads {
		resp, err := http.Post(u.url, u.ct, strings.NewReader(u.body))
		if err != nil {
			t.Fatal(err)
		}
		eb := decodeErrorBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest || eb.Code != string(finegrain.BadMatrix) ||
			!strings.Contains(eb.Error, "exceeds the configured limit") {
			t.Errorf("%s upload over MaxNNZ: %d code %q (%s), want 400 BadMatrix from the size-line check",
				u.name, resp.StatusCode, eb.Code, eb.Error)
		}
	}
	if n := metricValue(t, ts, "partserver_jobs_submitted_total"); n != 0 {
		t.Errorf("%d jobs submitted, want 0", n)
	}
}

// TestSolveSecondsIncludeSessionOpen checks that the first solve on a
// decomposition counts its plan compile: the solve histogram's sum must
// cover the job trace's finegrain/session.open span plus the solver's
// own solver/cg.block span.
func TestSolveSecondsIncludeSessionOpen(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	a := matgen.Grid5Point(9, 9)
	coo := a.ToCOO()
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	var mm bytes.Buffer
	if err := mmio.Write(&mm, coo.ToCSR()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?model=finegrain&k=8&seed=2", "text/plain", &mm)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, &st)
	pollDone(t, ts, st.ID)

	resp, err = http.Post(ts.URL+"/v1/jobs/"+st.ID+"/solve", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	decodeBody(t, tresp, &tr)
	spanUS := map[string]int64{}
	for _, ev := range tr.TraceEvents {
		spanUS[ev.Cat+"/"+ev.Name] += ev.Dur
	}
	open, cg := spanUS["finegrain/session.open"], spanUS["solver/cg.block"]
	if open == 0 || cg == 0 {
		t.Fatalf("trace spans: session.open %dµs, cg.block %dµs; want both recorded", open, cg)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "partserver_solve_seconds_sum "); ok {
			if sum, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sumUS := sum * 1e6; sumUS < float64(open+cg) {
		t.Errorf("partserver_solve_seconds_sum = %.0fµs, want >= session.open %dµs + cg.block %dµs", sumUS, open, cg)
	}
}
