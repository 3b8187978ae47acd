package partserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	finegrain "finegrain"
	"finegrain/internal/core"
	"finegrain/internal/matgen"
	"finegrain/internal/mmio"
	"finegrain/internal/solver"
	"finegrain/internal/spmv"
)

// submitSPD uploads a strictly SPD system (5-point Laplacian plus
// identity) and returns the finished job plus the local copy of the
// matrix.
func submitSPD(t *testing.T, ts *httptest.Server, gridRows, gridCols, k int) (JobStatus, *finegrain.Matrix) {
	t.Helper()
	a := matgen.Grid5Point(gridRows, gridCols)
	coo := a.ToCOO()
	for i := 0; i < a.Rows; i++ {
		coo.Add(i, i, 1)
	}
	a = coo.ToCSR()
	var mm bytes.Buffer
	if err := mmio.Write(&mm, a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?model=finegrain&k="+strconv.Itoa(k)+"&seed=2", "text/plain", bytes.NewReader(mm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeBody(t, resp, &st)
	return pollDone(t, ts, st.ID), a
}

// openSessionOK opens a session on a finished job and checks the 201.
func openSessionOK(t *testing.T, ts *httptest.Server, jobID string) SessionStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+jobID+"/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	decodeBody(t, resp, &st)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session on %s: %d", jobID, resp.StatusCode)
	}
	return st
}

func sessionSolve(t *testing.T, ts *httptest.Server, sid, body string) (solveResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/solve", "application/json", strings.NewReader(body))
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

// TestSessionSolveEndToEnd is the acceptance scenario for the session
// API: open a session on a decomposed SPD system, solve a batch of
// right-hand sides through it, and check the solutions are
// byte-identical to a local block-CG on the same decomposition at
// every worker count. A batch of one is exactly that right-hand side's
// trajectory inside the batch.
func TestSessionSolveEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	done, a := submitSPD(t, ts, 9, 9, 8)
	rows := a.Rows

	sess := openSessionOK(t, ts, done.ID)
	if sess.JobID != done.ID || sess.MatrixRows != rows || sess.K != 8 {
		t.Fatalf("session status: %+v", sess)
	}

	// The batch: three distinct right-hand sides.
	const n = 3
	rhs := make([][]float64, n)
	B := make([]float64, n*rows)
	for v := 0; v < n; v++ {
		rhs[v] = make([]float64, rows)
		for i := range rhs[v] {
			rhs[v][i] = 1/float64(i+v+1) - 0.4
			B[v*rows+i] = rhs[v][i]
		}
	}

	// Local reference: the served decomposition (deterministic, so it is
	// also what any local run of the same request computes) solved with
	// the same block-CG the server runs.
	dresp, err := http.Get(ts.URL + "/v1/jobs/" + done.ID + "/decomposition")
	if err != nil {
		t.Fatal(err)
	}
	asg, err := core.ReadAssignment(dresp.Body, a)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spmv.NewPlan(asg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	want, err := solver.BlockCG(pl, asg.K, B, n, solver.BlockCGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	planCtr := pl.Counters()

	for _, workers := range []int{0, 1, 3} {
		req := map[string]any{"rhs": rhs, "include_x": true, "workers": workers}
		wb, _ := json.Marshal(req)
		sr, code := sessionSolve(t, ts, sess.ID, string(wb))
		if code != http.StatusOK {
			t.Fatalf("workers=%d: session solve: %d", workers, code)
		}
		if sr.SessionID != sess.ID || sr.ID != done.ID || sr.NRHS != n || len(sr.Results) != n {
			t.Fatalf("workers=%d: envelope %+v", workers, sr)
		}
		for v := 0; v < n; v++ {
			rv := sr.Results[v]
			if !rv.Converged || rv.Iterations != want.Iterations[v] || rv.Residual != want.Residuals[v] {
				t.Fatalf("workers=%d rhs %d: %+v, local iterations %d residual %g",
					workers, v, rv, want.Iterations[v], want.Residuals[v])
			}
			for i := 0; i < rows; i++ {
				if rv.X[i] != want.X[v*rows+i] {
					t.Fatalf("workers=%d rhs %d: x[%d] = %v, local block-CG got %v",
						workers, v, i, rv.X[i], want.X[v*rows+i])
				}
			}
		}
		// The amortization the session API exists for: messages are paid
		// per sweep, not per right-hand side.
		if sr.SpMVMessages != sr.BlockIterations*planCtr.TotalMessages() {
			t.Fatalf("workers=%d: %d messages over %d sweeps, want %d per sweep",
				workers, sr.SpMVMessages, sr.BlockIterations, planCtr.TotalMessages())
		}
		if sr.WordsPerRHS != sr.SpMVWords/n {
			t.Fatalf("workers=%d: words_per_rhs %d, want %d", workers, sr.WordsPerRHS, sr.SpMVWords/n)
		}
	}

	// A scalar solve is a batch of one with the identical normalized
	// envelope, and its trajectory is rhs[0]'s inside the batch.
	rb, _ := json.Marshal(map[string]any{"rhs": rhs[:1], "include_x": true})
	srR, code := sessionSolve(t, ts, sess.ID, string(rb))
	if code != http.StatusOK {
		t.Fatalf("rhs-of-one solve: %d", code)
	}
	if srR.NRHS != 1 || len(srR.Results) != 1 || srR.Results[0].Iterations != want.Iterations[0] {
		t.Fatalf("rhs-of-one: %+v, want a batch of one matching rhs[0]", srR)
	}
	for i, x := range srR.Results[0].X {
		if x != want.X[i] {
			t.Fatalf("x[%d]: rhs-of-one %v != rhs[0] in the batch %v", i, x, want.X[i])
		}
	}

	// Session bookkeeping: four solves through the session, status
	// reflects them, metrics count them.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	decodeBody(t, resp, &st)
	if st.Solves != 4 {
		t.Fatalf("session solves = %d, want 4", st.Solves)
	}
	if v := metricValue(t, ts, "partserver_sessions_active"); v != 1 {
		t.Fatalf("sessions_active = %d, want 1", v)
	}
	if v := metricValue(t, ts, "partserver_session_solves_total"); v != 4 {
		t.Fatalf("session_solves_total = %d, want 4", v)
	}
	if v := metricValue(t, ts, "partserver_solve_rhs_count"); v != 4 {
		t.Fatalf("solve_rhs histogram count = %d, want 4", v)
	}

	// DELETE closes it; subsequent use reports SessionExpired, not 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: %d", cresp.StatusCode)
	}
	if _, code := sessionSolve(t, ts, sess.ID, "{}"); code != http.StatusGone {
		t.Fatalf("solve on closed session: %d, want 410", code)
	}
}

// TestSessionTTLEvictionReleasesPlan is the lifecycle regression for
// the session path: a session idle past the TTL is swept, its compiled
// plan is released through the same releasePlan path cache eviction
// uses, and later solves through the job endpoint transparently
// rebuild. A result shared by a surviving session keeps its plan.
func TestSessionTTLEvictionReleasesPlan(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	done, _ := submitSPD(t, ts, 6, 6, 4)

	sess1 := openSessionOK(t, ts, done.ID)
	if !planOf(t, s, done.ID) {
		t.Fatal("opening a session did not compile the plan")
	}

	// A second session over the same result: closing it must NOT release
	// the plan sess1 still uses.
	sess2 := openSessionOK(t, ts, done.ID)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess2.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !planOf(t, s, done.ID) {
		t.Fatal("closing one of two sessions sharing a result released the plan")
	}

	// Expire the survivor via the sweeper with a synthetic clock.
	if n := s.sweepSessions(time.Now()); n != 0 {
		t.Fatalf("premature sweep expired %d sessions", n)
	}
	if n := s.sweepSessions(time.Now().Add(s.cfg.SessionTTL + time.Minute)); n != 1 {
		t.Fatalf("sweep expired %d sessions, want 1", n)
	}
	if planOf(t, s, done.ID) {
		t.Fatal("TTL eviction left the compiled plan resident")
	}
	if v := metricValue(t, ts, `partserver_sessions_evicted_total{reason="ttl"}`); v != 1 {
		t.Fatalf("evicted{ttl} = %d, want 1", v)
	}
	if v := metricValue(t, ts, "partserver_sessions_active"); v != 0 {
		t.Fatalf("sessions_active = %d, want 0", v)
	}

	// The expired ID is classified as expired, not unknown.
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + sess1.ID)
	if err != nil {
		t.Fatal(err)
	}
	eb := decodeErrorBody(t, gresp)
	if gresp.StatusCode != http.StatusGone || eb.Code != string(codeSessionExpired) {
		t.Fatalf("expired session: %d code %q, want 410 SessionExpired", gresp.StatusCode, eb.Code)
	}

	// The job endpoint still serves: the next solve rebuilds the plan.
	solveOK(t, ts, done.ID)
	if !planOf(t, s, done.ID) {
		t.Fatal("solve after session eviction did not rebuild the plan")
	}
}

// TestSessionCapacityEviction bounds the registry: opening past
// MaxSessions evicts the least-recently-used session.
func TestSessionCapacityEviction(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxSessions: 2})
	done, _ := submitSPD(t, ts, 6, 6, 4)

	s1 := openSessionOK(t, ts, done.ID)
	s2 := openSessionOK(t, ts, done.ID)
	// Touch s1 so s2 is the LRU.
	if resp, err := http.Get(ts.URL + "/v1/sessions/" + s1.ID); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	s3 := openSessionOK(t, ts, done.ID)

	if resp, err := http.Get(ts.URL + "/v1/sessions/" + s2.ID); err != nil {
		t.Fatal(err)
	} else {
		eb := decodeErrorBody(t, resp)
		if resp.StatusCode != http.StatusGone || eb.Code != string(codeSessionExpired) {
			t.Fatalf("LRU session after capacity eviction: %d code %q, want 410 SessionExpired", resp.StatusCode, eb.Code)
		}
	}
	for _, alive := range []string{s1.ID, s3.ID} {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + alive)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s evicted, want it alive", alive)
		}
	}
	if v := metricValue(t, ts, `partserver_sessions_evicted_total{reason="capacity"}`); v != 1 {
		t.Fatalf("evicted{capacity} = %d, want 1", v)
	}
	if v := metricValue(t, ts, "partserver_sessions_active"); v != 2 {
		t.Fatalf("sessions_active = %d, want 2", v)
	}
}

// TestSolveNDJSONStreaming exercises the residual stream on both solve
// endpoints: Accept: application/x-ndjson yields one line per block
// sweep plus a final response object.
func TestSolveNDJSONStreaming(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	done, a := submitSPD(t, ts, 8, 8, 4)
	sess := openSessionOK(t, ts, done.ID)

	const n = 2
	rhs := make([][]float64, n)
	for v := range rhs {
		rhs[v] = make([]float64, a.Rows)
		for i := range rhs[v] {
			rhs[v][i] = float64((i+v)%5) - 2
		}
	}
	body, _ := json.Marshal(map[string]any{"rhs": rhs})

	stream := func(url string) (lines []iterLine, final solveResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream solve: %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var raw []string
		for sc.Scan() {
			if len(strings.TrimSpace(sc.Text())) > 0 {
				raw = append(raw, sc.Text())
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(raw) < 2 {
			t.Fatalf("stream produced %d lines, want residual lines plus a final object", len(raw))
		}
		for _, ln := range raw[:len(raw)-1] {
			var il iterLine
			if err := json.Unmarshal([]byte(ln), &il); err != nil {
				t.Fatalf("residual line %q: %v", ln, err)
			}
			lines = append(lines, il)
		}
		if err := json.Unmarshal([]byte(raw[len(raw)-1]), &final); err != nil {
			t.Fatalf("final line: %v", err)
		}
		return lines, final
	}

	for _, url := range []string{
		ts.URL + "/v1/sessions/" + sess.ID + "/solve",
		ts.URL + "/v1/jobs/" + done.ID + "/solve",
	} {
		lines, final := stream(url)
		if final.NRHS != n || len(final.Results) != n {
			t.Fatalf("%s: final envelope %+v", url, final)
		}
		if len(lines) != final.BlockIterations {
			t.Fatalf("%s: %d residual lines, %d block iterations", url, len(lines), final.BlockIterations)
		}
		for i, il := range lines {
			if il.Iter != i || len(il.Residuals) != n {
				t.Fatalf("%s: line %d = %+v", url, i, il)
			}
		}
		last := lines[len(lines)-1]
		for v := 0; v < n; v++ {
			if last.Residuals[v] != final.Results[v].Residual {
				t.Fatalf("%s: last streamed residual %g != final %g", url, last.Residuals[v], final.Results[v].Residual)
			}
		}
	}
}

// TestSessionErrors table-tests the session error surface.
func TestSessionErrors(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	done, a := submitSPD(t, ts, 6, 6, 4)
	sess := openSessionOK(t, ts, done.ID)

	// Opening a session on an unknown job.
	resp, err := http.Post(ts.URL+"/v1/jobs/zzz/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErrorBody(t, resp); resp.StatusCode != http.StatusNotFound || eb.Code != string(codeNotFound) {
		t.Fatalf("session on unknown job: %d code %q", resp.StatusCode, eb.Code)
	}

	// An ID the server never issued is 404, not 410.
	for _, sid := range []string{"s999999", "zzz"} {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + sid)
		if err != nil {
			t.Fatal(err)
		}
		if eb := decodeErrorBody(t, resp); resp.StatusCode != http.StatusNotFound || eb.Code != string(codeNotFound) {
			t.Fatalf("unknown session %s: %d code %q, want 404 NotFound", sid, resp.StatusCode, eb.Code)
		}
	}

	// Malformed solve bodies.
	short, _ := json.Marshal(map[string]any{"rhs": [][]float64{make([]float64, a.Rows-1)}})
	both, _ := json.Marshal(map[string]any{"rhs": [][]float64{make([]float64, a.Rows)}, "b": make([]float64, a.Rows)})
	bad := []string{
		string(short),       // wrong-length vector in the batch
		string(both),        // rhs and the retired b together
		`{"rhs":[]}`,        // empty batch
		`{"max_iter":-1}`,   // negative bound
		`{"tol":-0.5}`,      // negative tolerance
		`{"rhs":"not arr"}`, // type mismatch
	}
	for i, body := range bad {
		if _, code := sessionSolve(t, ts, sess.ID, body); code != http.StatusBadRequest {
			t.Errorf("bad solve %d: %d, want 400", i, code)
		}
	}
	// The retired scalar `b` — like any unknown field — is refused, not
	// silently replaced by the all-ones default.
	ob, _ := json.Marshal(map[string]any{"b": make([]float64, a.Rows)})
	resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/solve", "application/json", bytes.NewReader(ob))
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeErrorBody(t, resp); resp.StatusCode != http.StatusBadRequest || eb.Code != string(codeBadRequest) {
		t.Fatalf("solve with retired b: %d code %q, want 400 %s", resp.StatusCode, eb.Code, codeBadRequest)
	}

	// Double DELETE: the second sees an expired (410), not unknown (404).
	for i, want := range []int{http.StatusOK, http.StatusGone} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("DELETE #%d: %d, want %d", i+1, resp.StatusCode, want)
		}
	}
}
