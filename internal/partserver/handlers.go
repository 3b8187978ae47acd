package partserver

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	finegrain "finegrain"
	"finegrain/internal/core"
	"finegrain/internal/mmio"
	"finegrain/internal/obs"
	"finegrain/internal/solver"
)

// Handler returns the service's HTTP surface:
//
//	POST   /v1/jobs                    submit a job (JSON or raw Matrix Market body)
//	GET    /v1/jobs                    list job statuses
//	GET    /v1/jobs/{id}               one job's status
//	DELETE /v1/jobs/{id}               cancel a queued or running job
//	GET    /v1/jobs/{id}/decomposition the computed ownership arrays (core JSON)
//	GET    /v1/jobs/{id}/stats         partitioner and communication statistics
//	POST   /v1/jobs/{id}/solve         block-CG solve on the cached decomposition (1..N RHS)
//	POST   /v1/jobs/{id}/sessions      open a solver session (plan compiled and held resident)
//	GET    /v1/sessions/{sid}          session status; resets the idle clock
//	DELETE /v1/sessions/{sid}          close a session, releasing its plan
//	POST   /v1/sessions/{sid}/solve    block-CG solve through a session
//	GET    /v1/jobs/{id}/trace         the job's span trace (Chrome trace-event JSON)
//	GET    /healthz                    liveness plus queue gauges
//	GET    /metrics                    Prometheus text format
//
// Both solve endpoints accept 1..N right-hand sides per request and
// stream per-iteration residuals as NDJSON when the client sends
// Accept: application/x-ndjson.
//
// Every route runs behind the request-ID middleware: the X-Request-ID
// header (generated when absent) is echoed on the response, propagated
// through the request context to job records and logs, and returned in
// job status JSON as request_id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/decomposition", s.handleDecomposition)
	mux.HandleFunc("GET /v1/jobs/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/jobs/{id}/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/jobs/{id}/sessions", s.handleSessionOpen)
	mux.HandleFunc("GET /v1/sessions/{sid}", s.handleSessionStatus)
	mux.HandleFunc("DELETE /v1/sessions/{sid}", s.handleSessionClose)
	mux.HandleFunc("POST /v1/sessions/{sid}/solve", s.handleSessionSolve)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withRequestID(mux)
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// withRequestID is the outermost middleware: it assigns every request
// an ID (client-provided X-Request-ID or a fresh one), echoes it on the
// response, stores it in the request context for handlers and job
// records, and emits one structured log record per request.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sr, r)
		s.log.Info("request", "request_id", id, "method", r.Method,
			"path", r.URL.Path, "status", sr.status,
			"duration_ms", time.Since(t0).Milliseconds())
	})
}

// Server-side envelope codes for failures that have no finegrain
// classification (finegrain.ErrorCode is an open string type).
const (
	codeBadRequest  finegrain.ErrorCode = "BadRequest"
	codeNotFound    finegrain.ErrorCode = "NotFound"
	codeConflict    finegrain.ErrorCode = "Conflict"
	codeUnavailable finegrain.ErrorCode = "Unavailable"
	codeThrottled   finegrain.ErrorCode = "Throttled"
	// codeSessionExpired marks a session ID the server once issued but
	// has since evicted (idle TTL, capacity, or client close): 410, open
	// a new session. Never-issued IDs get 404 NotFound instead.
	codeSessionExpired finegrain.ErrorCode = "SessionExpired"
)

// errorBody is the uniform JSON error envelope: a human-readable
// message plus a machine-readable code (finegrain.ErrorCode values for
// decomposition failures, server-side codes otherwise).
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func httpError(w http.ResponseWriter, status int, code finegrain.ErrorCode, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...), Code: string(code)})
}

// codeOf classifies err for the envelope: the finegrain code if err
// carries one, else the fallback.
func codeOf(err error, fallback finegrain.ErrorCode) finegrain.ErrorCode {
	var fe *finegrain.Error
	if errors.As(err, &fe) {
		return fe.Code
	}
	return fallback
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// errEarlyHit aborts a streaming parse when the content hash resolved
// to a result the fleet already has.
var errEarlyHit = errors.New("request resolved while streaming")

// forwardedHeader marks a submission relayed by a ring peer; its
// presence stops the receiving replica from forwarding again (loop
// guard for a misconfigured ring).
const forwardedHeader = "X-Partserver-Forwarded"

// handleSubmit accepts either a JSON JobRequest or a raw Matrix Market
// body (plain or gzip, detected by magic bytes) with parameters in the
// query string.
//
// Raw bodies are ingested incrementally: the matrix is parsed and
// content-hashed while the upload streams, so peak memory is
// proportional to the compiled CSR, not to the bytes on the wire, and
// a duplicate of something already computed is detected the moment the
// hash completes — before the CSR is even assembled. Under a
// multi-replica ring, requests whose content key is owned by another
// replica are proxied there so fleet-wide duplicates coalesce in one
// process; if the owner is unreachable the request is computed locally.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := obs.RequestID(r.Context())
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()

	var (
		req JobRequest
		m   *finegrain.Matrix
		sum [32]byte
	)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
			return
		}
		req.Tenant = r.Header.Get("X-Tenant")
		if err := req.normalize(); err != nil {
			httpError(w, http.StatusBadRequest, codeOf(err, codeBadRequest), "%v", err)
			return
		}
		var err error
		if m, sum, err = buildMatrix(&req); err != nil {
			httpError(w, http.StatusBadRequest, codeOf(err, finegrain.BadMatrix), "%v", err)
			return
		}
		// The matrix text has served its purpose; drop it so job records
		// do not pin multi-megabyte upload bodies.
		req.Matrix = ""
	} else {
		// Raw Matrix Market upload; parameters ride in the query. They
		// are validated before the body is read so a malformed request
		// costs nothing, and so the content key can be computed the
		// moment the stream hash lands.
		var err error
		if req, err = requestFromQuery(r); err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		req.Tenant = r.Header.Get("X-Tenant")
		if err := req.normalize(); err != nil {
			httpError(w, http.StatusBadRequest, codeOf(err, codeBadRequest), "%v", err)
			return
		}
		var early *JobStatus
		mm, info, err := mmio.ReadCSRStream(body, mmio.StreamOptions{
			MaxNNZ: s.cfg.MaxNNZ,
			OnContentHash: func(h [32]byte) error {
				key := keyFromHash(h, req.Model, req.K, req.Eps, req.Seed)
				st, ok, lerr := s.lookup(req, nil, key, reqID)
				if lerr != nil {
					return lerr
				}
				if ok {
					early = &st
					return errEarlyHit
				}
				return nil
			},
		})
		switch {
		case errors.Is(err, errEarlyHit):
			writeJSON(w, http.StatusOK, *early)
			return
		case errors.Is(err, errDraining):
			httpError(w, http.StatusServiceUnavailable, codeUnavailable, "%v", err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, codeOf(err, finegrain.BadMatrix), "%v", err)
			return
		}
		if mm.Rows != mm.Cols {
			httpError(w, http.StatusBadRequest, finegrain.BadMatrix,
				"matrix is %dx%d; the decomposition models need a square matrix", mm.Rows, mm.Cols)
			return
		}
		m, sum = mm, info.Sum
	}

	// Model "auto" resolves to its concrete model here — after the
	// matrix exists, before the cache key is computed — so an auto
	// submission and an explicit submission of the chosen model share a
	// key and coalesce. The selection is a pure function of the matrix
	// structure and the key covers the matrix hash, so equal keys always
	// agree on the selection. (The raw-upload early-hit probe above runs
	// before the CSR exists and therefore cannot resolve auto; it simply
	// misses, and the post-parse lookup below catches the duplicate.)
	if req.Model == "auto" {
		d := finegrain.SelectModel(m)
		req.RequestedModel = "auto"
		req.Model = d.Model
		s.log.Info("auto model selected", "request_id", reqID,
			"model", d.Model, "reason", d.Reason)
	}

	key := keyFromHash(sum, req.Model, req.K, req.Eps, req.Seed)

	// Ring routing: a key owned by another replica is proxied there,
	// unless this request is itself a relay (loop guard), the owner is
	// benched, or the shared cache/store already has the answer.
	if s.ring != nil && r.Header.Get(forwardedHeader) == "" {
		if owner := s.ring.owner(key); owner != s.ring.self && s.ring.available(owner) {
			if st, ok, err := s.lookup(req, m, key, reqID); ok || err != nil {
				s.finishSubmit(w, st, err)
				return
			}
			if s.forwardSubmit(w, r, req, m, key, owner, reqID) {
				return
			}
			// Forward failed: bench the owner and compute locally. The
			// result still lands in the shared store, so the fleet
			// converges once the owner returns.
		}
	}

	// Empty rows or columns get unit diagonal entries before
	// decomposition (the models need them); the content key was taken
	// over the matrix as uploaded, so the patch cannot split addresses.
	m = m.EnsureNonemptyRowsCols()
	st, err := s.submit(req, m, key, reqID)
	s.finishSubmit(w, st, err)
}

// finishSubmit renders a submit outcome: 429 with Retry-After for
// throttled requests, 503 for drain, 200 for results the fleet already
// had, 202 for newly queued computations.
func (s *Server) finishSubmit(w http.ResponseWriter, st JobStatus, err error) {
	if te, ok := asThrottled(err); ok {
		secs := int(te.retryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, codeThrottled, "%v", te)
		return
	}
	switch {
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, codeUnavailable, "%v", err)
	case err != nil:
		httpError(w, http.StatusInternalServerError, finegrain.Internal, "%v", err)
	case st.CacheHit || st.Coalesced:
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// forwardSubmit relays the submission to its ring owner and writes the
// owner's response. It reports false — nothing written — when the peer
// is unreachable, in which case the caller computes locally.
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, req JobRequest, m *finegrain.Matrix, key, owner, reqID string) bool {
	var (
		body io.Reader
		ct   string
		url  string
	)
	if req.Catalog != "" {
		// Catalog requests are tiny: relay as JSON.
		b, err := json.Marshal(req)
		if err != nil {
			return false
		}
		body, ct = bytes.NewReader(b), "application/json"
		url = owner + "/v1/jobs"
	} else {
		// Uploaded matrices are re-serialized in canonical order and
		// gzipped — exactly the stream shape the owner's fast path hashes
		// incrementally, so the owner derives the same content key.
		var buf bytes.Buffer
		gz := gzip.NewWriter(&buf)
		if err := mmio.Write(gz, m); err != nil {
			return false
		}
		if err := gz.Close(); err != nil {
			return false
		}
		body, ct = &buf, "application/octet-stream"
		url = owner + "/v1/jobs?" + forwardQuery(req).Encode()
	}

	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, body)
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", ct)
	preq.Header.Set(forwardedHeader, "1")
	preq.Header.Set("X-Request-ID", reqID)
	if req.Tenant != defaultTenant {
		preq.Header.Set("X-Tenant", req.Tenant)
	}
	resp, err := peerClient.Do(preq)
	if err != nil {
		s.ring.markFailed(owner)
		s.metrics.proxyErrors.Add(1)
		s.log.Warn("proxy failed", "request_id", reqID, "owner", owner, "err", err)
		return false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		s.ring.markFailed(owner)
		s.metrics.proxyErrors.Add(1)
		s.log.Warn("proxy failed", "request_id", reqID, "owner", owner, "err", err)
		return false
	}
	s.metrics.proxyForwarded.Add(1)
	s.log.Info("job forwarded", "request_id", reqID, "owner", owner,
		"key", key[:16], "status", resp.StatusCode)

	// Successful outcomes are re-stamped with the owner so clients know
	// which replica holds the job; errors relay verbatim.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	var st JobStatus
	if resp.StatusCode < 300 && json.Unmarshal(raw, &st) == nil {
		st.Owner = owner
		writeJSON(w, resp.StatusCode, st)
		return true
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
	return true
}

// peerClient is the fleet-internal HTTP client. Submissions return
// quickly (the compute is asynchronous), so a short timeout is enough
// to detect a dead peer without stalling the submitting client.
var peerClient = &http.Client{Timeout: 30 * time.Second}

// forwardQuery renders the normalized request as raw-upload query
// parameters.
func forwardQuery(req JobRequest) url.Values {
	q := url.Values{}
	q.Set("model", req.Model)
	q.Set("k", strconv.Itoa(req.K))
	q.Set("eps", strconv.FormatFloat(req.Eps, 'g', -1, 64))
	q.Set("seed", strconv.FormatUint(req.Seed, 10))
	q.Set("priority", req.Priority)
	if req.Workers != 0 {
		q.Set("workers", strconv.Itoa(req.Workers))
	}
	if req.TimeoutMS != 0 {
		q.Set("timeout_ms", strconv.Itoa(req.TimeoutMS))
	}
	return q
}

// requestFromQuery decodes the partitioning parameters of a raw-body
// submission.
func requestFromQuery(r *http.Request) (JobRequest, error) {
	q := r.URL.Query()
	req := JobRequest{Model: q.Get("model"), Priority: q.Get("priority")}
	var err error
	intQ := func(name string, dst *int) {
		if v := q.Get(name); v != "" && err == nil {
			if *dst, err = strconv.Atoi(v); err != nil {
				err = fmt.Errorf("query %s=%q: %v", name, v, err)
			}
		}
	}
	intQ("k", &req.K)
	intQ("workers", &req.Workers)
	intQ("timeout_ms", &req.TimeoutMS)
	if v := q.Get("eps"); v != "" && err == nil {
		if req.Eps, err = strconv.ParseFloat(v, 64); err != nil {
			err = fmt.Errorf("query eps=%q: %v", v, err)
		}
	}
	if v := q.Get("seed"); v != "" && err == nil {
		if req.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			err = fmt.Errorf("query seed=%q: %v", v, err)
		}
	}
	return req, err
}

// buildMatrix materializes the job's matrix from its single source and
// returns its canonical content hash. The matrix comes back exactly as
// uploaded or generated — empty-row patching happens later, at compute
// time — so the hash (and the content key derived from it) is a pure
// function of what the client sent, matching what the streaming ingest
// path computes on the wire.
func buildMatrix(req *JobRequest) (*finegrain.Matrix, [32]byte, error) {
	var zero [32]byte
	switch {
	case req.Catalog != "" && req.Matrix != "":
		return nil, zero, errors.New("set either catalog or matrix, not both")
	case req.Catalog != "":
		if req.GenSeed == 0 {
			req.GenSeed = 1
		}
		m, err := finegrain.Generate(req.Catalog, req.Scale, req.GenSeed)
		if err != nil {
			return nil, zero, err
		}
		return m, m.ContentHash(), nil
	case req.Matrix != "":
		a, err := mmio.Read(strings.NewReader(req.Matrix))
		if err != nil {
			return nil, zero, err
		}
		if a.Rows != a.Cols {
			return nil, zero, fmt.Errorf("matrix is %dx%d; the decomposition models need a square matrix", a.Rows, a.Cols)
		}
		return a, a.ContentHash(), nil
	}
	return nil, zero, errors.New("the request needs a matrix: set catalog or matrix")
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.cancelJob(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultOf fetches a job's result if it finished successfully, mapping
// the other states to precise HTTP errors.
func (s *Server) resultOf(w http.ResponseWriter, id string) (*job, *jobResult, bool) {
	j, ok := s.getJob(id)
	if !ok {
		httpError(w, http.StatusNotFound, codeNotFound, "no such job %q", id)
		return nil, nil, false
	}
	s.mu.Lock()
	state, res, errMsg, errCode := j.state, j.result, j.err, j.errCode
	s.mu.Unlock()
	switch state {
	case JobDone:
		return j, res, true
	case JobQueued, JobRunning:
		httpError(w, http.StatusConflict, codeConflict, "job %s is %s; poll GET /v1/jobs/%s until done", id, state, id)
	case JobFailed:
		httpError(w, http.StatusGone, errCode, "job %s failed: %s", id, errMsg)
	case JobCanceled:
		httpError(w, http.StatusGone, errCode, "job %s was canceled: %s", id, errMsg)
	}
	return nil, nil, false
}

// handleDecomposition streams the ownership arrays in the repo's
// standard assignment JSON (the same format cmd/sparsepart -save
// writes and -load reads).
func (s *Server) handleDecomposition(w http.ResponseWriter, r *http.Request) {
	_, res, ok := s.resultOf(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := core.WriteAssignment(w, res.dec.Assignment); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		return
	}
}

// jobStatsResponse is the body of GET /v1/jobs/{id}/stats.
type jobStatsResponse struct {
	ID      string `json:"id"`
	Cutsize int    `json:"cutsize"`
	// Comm is the analytic communication profile (internal/comm).
	Comm *finegrain.Stats `json:"comm"`
	// Partitioner is the per-phase partition record (internal/hgpart);
	// null for the graph model, which does not collect stats.
	Partitioner *finegrain.PartitionStats `json:"partitioner"`
	ElapsedMS   int64                     `json:"elapsed_ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	j, res, ok := s.resultOf(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobStatsResponse{
		ID:          j.id,
		Cutsize:     res.dec.Cutsize,
		Comm:        res.dec.Stats,
		Partitioner: res.dec.PartStats,
		ElapsedMS:   res.elapsed.Milliseconds(),
	})
}

// solveRequest is the body of POST /v1/jobs/{id}/solve and
// POST /v1/sessions/{sid}/solve. All fields are optional: the
// right-hand sides default to a single all-ones vector. A scalar solve
// is simply a batch of one — the response shape is identical. Unknown
// fields are rejected, so a misspelled or retired field (the pre-batch
// scalar "b") fails loudly instead of solving the default system.
type solveRequest struct {
	// RHS is the batch of right-hand sides (each of length = matrix
	// rows). One block-CG solve runs over all of them, paying the
	// expand/fold message count once per iteration for the whole batch.
	RHS [][]float64 `json:"rhs,omitempty"`
	// Tol is the relative residual tolerance (default 1e-8), applied per
	// right-hand side.
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds CG iterations per right-hand side (default 10·n).
	MaxIter int `json:"max_iter,omitempty"`
	// Workers bounds the goroutines of each multiply (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// IncludeX returns the solution vectors in the response (off by
	// default: for large systems the interesting outputs are the
	// convergence and communication numbers).
	IncludeX bool `json:"include_x,omitempty"`
}

// rhsResult is the per-right-hand-side outcome inside a solveResponse.
type rhsResult struct {
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Residual   float64   `json:"residual"`
	X          []float64 `json:"x,omitempty"`
}

// solveResponse is the body of a successful solve: always a batch,
// with results[v] the outcome of rhs[v] (a scalar solve has nrhs 1).
type solveResponse struct {
	ID        string      `json:"id"`
	SessionID string      `json:"session_id,omitempty"`
	NRHS      int         `json:"nrhs"`
	Results   []rhsResult `json:"results"`

	// BlockIterations counts the shared block sweeps (the max of the
	// per-RHS iteration counts); the message accounting below is per
	// sweep, independent of nrhs.
	BlockIterations int `json:"block_iterations"`

	// Communication accounting over the whole solve, from the compiled
	// plan's counters (constant per iteration) and the all-reduce model.
	// WordsPerRHS is SpMVWords/nrhs — what each right-hand side paid for
	// its share of the amortized multiplies.
	SpMVWords      int `json:"spmv_words"`
	SpMVMessages   int `json:"spmv_messages"`
	AllreduceWords int `json:"allreduce_words"`
	WordsPerRHS    int `json:"words_per_rhs"`

	ElapsedMS int64 `json:"elapsed_ms"`
}

// iterLine is one NDJSON residual-stream record: the block sweep index
// and the per-RHS residuals ‖r_v‖₂ after it.
type iterLine struct {
	Iter      int       `json:"iter"`
	Residuals []float64 `json:"residuals"`
}

// stackRHS normalizes the request's right-hand sides — rhs array or
// the all-ones default — into the stacked layout solver.BlockCG takes.
func stackRHS(req *solveRequest, rows int) ([]float64, int, error) {
	if req.RHS == nil {
		ones := make([]float64, rows)
		for i := range ones {
			ones[i] = 1
		}
		req.RHS = [][]float64{ones}
	}
	n := len(req.RHS)
	if n == 0 {
		return nil, 0, errors.New("rhs needs at least one vector")
	}
	B := make([]float64, n*rows)
	for v, rhs := range req.RHS {
		if len(rhs) != rows {
			return nil, 0, fmt.Errorf("rhs[%d] has %d entries, matrix has %d rows", v, len(rhs), rows)
		}
		copy(B[v*rows:], rhs)
	}
	return B, n, nil
}

// handleSolve runs a block conjugate-gradient solve on a finished
// job's decomposition. The first solve compiles the decomposition into
// an spmv.Plan that is cached on the result (shared with the
// decomposition cache and any open sessions), so repeated solves — and
// every iteration within one — pay only execution cost. Solves on one
// result serialize; distinct jobs solve concurrently.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	j, res, ok := s.resultOf(w, r.PathValue("id"))
	if !ok {
		return
	}
	s.runSolve(w, r, j.id, "", res)
}

// runSolve is the solve core shared by the job and session endpoints:
// decode and validate the batch, compile-or-reuse the plan, run block
// CG, and render the batch response — streamed as NDJSON residual
// lines plus a final response object when the client asked for it.
func (s *Server) runSolve(w http.ResponseWriter, r *http.Request, jobID, sessionID string, res *jobResult) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	defer body.Close()
	var req solveRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "decoding request: %v", err)
		return
	}
	if req.MaxIter < 0 || req.Tol < 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "max_iter and tol must be >= 0")
		return
	}
	rows := res.dec.Assignment.A.Rows
	B, n, err := stackRHS(&req, rows)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	ndjson := strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")

	res.mu.Lock()
	pl, err := res.planLocked()
	if err != nil {
		res.mu.Unlock()
		httpError(w, http.StatusInternalServerError, finegrain.Internal, "compiling plan: %v", err)
		return
	}
	opts := solver.BlockCGOptions{
		Tol:     req.Tol,
		MaxIter: req.MaxIter,
		Workers: req.Workers,
		Trace:   res.trace, // solves append to the job's trace
	}
	var enc *json.Encoder
	var flusher http.Flusher
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		flusher, _ = w.(http.Flusher)
		opts.OnIteration = func(iter int, residuals []float64) {
			enc.Encode(iterLine{Iter: iter, Residuals: residuals})
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	t0 := time.Now()
	blk, err := solver.BlockCG(pl, res.dec.Assignment.K, B, n, opts)
	elapsed := time.Since(t0)
	res.mu.Unlock()
	if err != nil {
		if ndjson {
			// The stream already committed a 200; truncation (no final
			// results object) is the only error signal left.
			return
		}
		httpError(w, http.StatusInternalServerError, finegrain.Internal, "solve: %v", err)
		return
	}
	s.metrics.solves.Add(1)
	s.metrics.solveSeconds.observe(elapsed.Seconds())
	s.metrics.solveRHS.observe(float64(n))
	if sessionID != "" {
		s.metrics.sessionSolves.Add(1)
	}
	s.log.Info("solve done", "job_id", jobID, "session_id", sessionID,
		"request_id", obs.RequestID(r.Context()),
		"nrhs", n, "block_iterations", blk.BlockIterations, "converged", blk.AllConverged(),
		"elapsed_ms", elapsed.Milliseconds())

	out := solveResponse{
		ID:              jobID,
		SessionID:       sessionID,
		NRHS:            n,
		Results:         make([]rhsResult, n),
		BlockIterations: blk.BlockIterations,
		SpMVWords:       blk.SpMVWords,
		SpMVMessages:    blk.SpMVMessages,
		AllreduceWords:  blk.AllreduceWords,
		WordsPerRHS:     blk.SpMVWords / n,
		ElapsedMS:       elapsed.Milliseconds(),
	}
	for v := 0; v < n; v++ {
		rr := rhsResult{Iterations: blk.Iterations[v], Converged: blk.Converged[v], Residual: blk.Residuals[v]}
		if req.IncludeX {
			rr.X = blk.X[v*rows : (v+1)*rows]
		}
		out.Results[v] = rr
	}
	if ndjson {
		enc.Encode(out)
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionOpen opens a solver session on a finished job: the plan
// is compiled (or reused) immediately — a session that cannot solve
// should not exist — and held resident until the session is closed,
// evicted for capacity, or expires idle.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	j, res, ok := s.resultOf(w, r.PathValue("id"))
	if !ok {
		return
	}
	res.mu.Lock()
	t0 := time.Now()
	_, err := res.planLocked()
	if err == nil {
		res.trace.AddComplete(nil, "partserver", "session.open", t0, time.Now())
	}
	res.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, finegrain.Internal, "compiling plan: %v", err)
		return
	}
	st, err := s.openSession(j, res)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, codeUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// sessionOf resolves a session ID, resetting its idle clock. Failures
// are written to w: 410 SessionExpired for IDs the server issued but
// has since evicted (including lazily — idle past the TTL before the
// sweeper caught it), 404 for IDs it never issued.
func (s *Server) sessionOf(w http.ResponseWriter, sid string) (*session, bool) {
	now := time.Now()
	s.mu.Lock()
	sess, ok := s.sessions[sid]
	if ok && now.Sub(sess.lastUsed) > s.cfg.SessionTTL {
		release := s.expireSessionLocked(sess)
		s.mu.Unlock()
		if release {
			sess.res.releasePlan()
		}
		s.log.Info("session expired", "session_id", sid, "job_id", sess.jobID,
			"idle_ms", now.Sub(sess.lastUsed).Milliseconds())
		ok = false
		s.mu.Lock()
	}
	if !ok {
		known := s.sessionKnownLocked(sid)
		s.mu.Unlock()
		if known {
			httpError(w, http.StatusGone, codeSessionExpired,
				"session %s has expired or was closed; open a new one with POST /v1/jobs/{id}/sessions", sid)
		} else {
			httpError(w, http.StatusNotFound, codeNotFound, "no such session %q", sid)
		}
		return nil, false
	}
	sess.lastUsed = now
	s.mu.Unlock()
	return sess, true
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionOf(w, r.PathValue("sid"))
	if !ok {
		return
	}
	s.mu.Lock()
	st := s.sessionStatusLocked(sess)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionOf(w, r.PathValue("sid"))
	if !ok {
		return
	}
	s.mu.Lock()
	st := s.sessionStatusLocked(sess)
	delete(s.sessions, sess.id)
	s.metrics.sessionsClosed.Add(1)
	s.metrics.sessionsActive.Store(int64(len(s.sessions)))
	release := !s.resSharedLocked(sess.res)
	s.mu.Unlock()
	if release {
		sess.res.releasePlan()
	}
	s.log.Info("session closed", "session_id", sess.id, "job_id", sess.jobID, "solves", st.Solves)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionOf(w, r.PathValue("sid"))
	if !ok {
		return
	}
	s.runSolve(w, r, sess.jobID, sess.id, sess.res)
	s.mu.Lock()
	sess.solves++
	sess.lastUsed = time.Now() // the solve itself counts as activity
	s.mu.Unlock()
}

// handleTrace serves a completed job's span trace as Chrome trace-event
// JSON — load it at https://ui.perfetto.dev. For a cache hit the trace
// is the original computation's (the decomposition is content-addressed,
// so the hit's bytes were produced by exactly that computation); solves
// run on the decomposition appear as extra tracks.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	_, res, ok := s.resultOf(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A nil trace (results created before tracing existed) still writes
	// a valid empty trace document.
	if err := res.trace.WriteJSON(w); err != nil {
		return // headers are gone; the truncated body is the only signal left
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"queued":  s.metrics.jobsQueued.Load(),
		"running": s.metrics.jobsRunning.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w)
}
