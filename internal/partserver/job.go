package partserver

import (
	"context"
	"fmt"
	"sync"
	"time"

	finegrain "finegrain"
	"finegrain/internal/obs"
	"finegrain/internal/sparse"
)

// JobState is the lifecycle of a partition job. Transitions:
// queued → running → done | failed | canceled, with queued → canceled
// when a job is withdrawn (client cancel or server drain) before a
// worker picks it up. Cache hits are born done.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobRequest is the JSON body of POST /v1/jobs. Exactly one matrix
// source must be set: Catalog (a synthetic generator name from the
// paper's Table 1 catalog) or Matrix (inline Matrix Market text; large
// uploads can instead POST the raw .mtx body with parameters in the
// query string).
type JobRequest struct {
	// Catalog names a synthetic matrix; Scale and GenSeed parameterize
	// the generator (Scale defaults to 1, the paper's size).
	Catalog string  `json:"catalog,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	GenSeed uint64  `json:"gen_seed,omitempty"`
	// Matrix is inline Matrix Market text.
	Matrix string `json:"matrix,omitempty"`

	// Model is any SpMV model from finegrain's registry (default
	// "finegrain"), including "auto"; the spgemm models are rejected —
	// their decompositions carry no SpMV assignment for /solve or
	// /decomposition to serve.
	Model string `json:"model,omitempty"`
	// RequestedModel preserves the model string as submitted when the
	// server rewrites Model — an "auto" submission records "auto" here
	// and the selected concrete model in Model. Never read from the
	// body.
	RequestedModel string `json:"-"`
	// K is the number of processors (required, >= 1).
	K int `json:"k"`
	// Eps is the allowed load imbalance (default 0.03).
	Eps float64 `json:"eps,omitempty"`
	// Seed drives the partitioner (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds partitioner goroutines for this job (0 = server
	// default). Not part of the cache key: results are worker-invariant.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps the job's run time (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Priority selects the queue tier: "interactive" (default) is
	// preferred by workers over "batch". Not part of the cache key.
	Priority string `json:"priority,omitempty"`

	// Tenant is the accounting identity the admission controller meters;
	// it is set by the server from the X-Tenant header, never from the
	// body.
	Tenant string `json:"-"`
}

// Queue tiers.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// defaultTenant is the accounting identity of requests without an
// X-Tenant header.
const defaultTenant = "default"

// normalize fills defaults and validates the parameter space. The
// accepted model names come from finegrain's registry — the same list
// cmd/sparsepart advertises — and aliases are canonicalized so the
// cache key is alias-invariant. The matrix source is validated
// separately by the handler.
func (r *JobRequest) normalize() error {
	if r.Model == "" {
		r.Model = "finegrain"
	}
	m, ok := finegrain.LookupModel(r.Model)
	if !ok {
		return &finegrain.Error{Code: finegrain.BadModel, Op: "normalize",
			Msg: fmt.Sprintf("unknown model %q (want one of %v)", r.Model, finegrain.ModelNames())}
	}
	r.Model = m.Name
	if r.Model == "spgemm" || r.Model == "spgemm_1d" {
		return &finegrain.Error{Code: finegrain.BadModel, Op: "normalize",
			Msg: fmt.Sprintf("model %q decomposes a matrix product, not an SpMV operator; use sparsepart -spgemm or the Go API", r.Model)}
	}
	if r.K < 1 {
		return &finegrain.Error{Code: finegrain.BadK, Op: "normalize",
			Msg: fmt.Sprintf("k must be >= 1, got %d", r.K)}
	}
	if r.Eps < 0 {
		return fmt.Errorf("eps must be >= 0, got %g", r.Eps)
	}
	if r.Eps == 0 {
		r.Eps = 0.03
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", r.TimeoutMS)
	}
	switch r.Priority {
	case "":
		r.Priority = PriorityInteractive
	case PriorityInteractive, PriorityBatch:
	default:
		return fmt.Errorf("priority must be %q or %q, got %q", PriorityInteractive, PriorityBatch, r.Priority)
	}
	if r.Tenant == "" {
		r.Tenant = defaultTenant
	}
	return nil
}

// jobResult is what a completed computation leaves behind: it is shared
// by the job that ran it, every coalesced duplicate, and the cache.
type jobResult struct {
	dec     *finegrain.Decomposition
	elapsed time.Duration

	// trace holds the spans of the computation that produced dec (plus
	// any solves run on it). Cache hits share it: the trace a hit serves
	// is the original computation's, which is what "where did this
	// decomposition's time go" means under content addressing.
	trace *obs.Trace

	// mu guards the lazily opened solve session. The session is opened
	// on the first /solve of this decomposition and reused by every later
	// solve (a Session is not safe for concurrent calls, so solves on one
	// result serialize).
	mu   sync.Mutex
	sess *finegrain.Session
}

// sessionLocked returns the result's solve session, opening it on first
// use (the compile is recorded on the result's trace). Caller holds mu
// for the whole solve.
func (res *jobResult) sessionLocked() (*finegrain.Session, error) {
	if res.sess == nil {
		sess, err := finegrain.NewSession(res.dec, finegrain.SessionOptions{Trace: res.trace})
		if err != nil {
			return nil, err
		}
		res.sess = sess
	}
	return res.sess, nil
}

// releasePlan closes and drops the result's session and so its compiled
// plan, if any. The cache calls it on eviction so the plan's memory is
// freed even while a job record still references the result; that
// record reopens the session on its next solve via sessionLocked. Taking
// res.mu serializes with in-flight solves, so a plan is never closed
// mid-Exec.
func (res *jobResult) releasePlan() {
	res.mu.Lock()
	if res.sess != nil {
		res.sess.Close()
		res.sess = nil
	}
	res.mu.Unlock()
}

// job is the server-side record of one submission.
type job struct {
	id    string
	key   string
	req   JobRequest
	reqID string // request ID of the submitting HTTP request

	matrix *sparse.CSR

	// trace records the job's spans from submission (epoch) through the
	// partition; on success it is shared with the jobResult and served
	// by GET /v1/jobs/{id}/trace.
	trace *obs.Trace

	state    JobState
	err      string
	errCode  finegrain.ErrorCode // classification of err, when failed/canceled
	cacheHit bool
	storeHit bool

	created  time.Time
	started  time.Time
	finished time.Time

	result *jobResult
	cancel context.CancelFunc
	done   chan struct{} // closed on any terminal transition
}

// JobStatus is the JSON view of a job returned by the submission and
// status endpoints.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// RequestID echoes the X-Request-ID of the submitting request (or
	// the server-generated ID when the header was absent), tying job
	// records to request logs.
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error,omitempty"`
	// ErrorCode is the machine-readable classification of Error
	// (finegrain.ErrorCode values, e.g. "Canceled" or "Internal").
	ErrorCode string `json:"error_code,omitempty"`

	Model string `json:"model"`
	// RequestedModel echoes the submitted model string when the server
	// rewrote it: an "auto" submission reports the selected concrete
	// model in Model and "auto" here.
	RequestedModel string  `json:"requested_model,omitempty"`
	K              int     `json:"k"`
	Eps            float64 `json:"eps"`
	Seed           uint64  `json:"seed"`

	MatrixRows int `json:"matrix_rows"`
	MatrixCols int `json:"matrix_cols"`
	MatrixNNZ  int `json:"matrix_nnz"`

	// CacheHit marks a job served from the decomposition cache;
	// Coalesced marks a submission that attached to an identical job
	// already queued or running (returned only by POST). StoreHit marks
	// the subset of cache hits that were loaded from the disk store
	// (computed by an earlier process or another replica).
	CacheHit  bool `json:"cache_hit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	StoreHit  bool `json:"store_hit,omitempty"`

	// Owner, when present, is the base URL of the replica that served
	// the request on this replica's behalf (consistent-hash routing).
	Owner string `json:"owner,omitempty"`

	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	ElapsedMS  int64     `json:"elapsed_ms,omitempty"`

	// Result summary, present when State == done.
	Cutsize      int     `json:"cutsize,omitempty"`
	TotalVolume  int     `json:"total_volume,omitempty"`
	ImbalancePct float64 `json:"imbalance_pct,omitempty"`
}

// status snapshots the job under the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:             j.id,
		State:          j.state,
		RequestID:      j.reqID,
		Error:          j.err,
		ErrorCode:      string(j.errCode),
		Model:          j.req.Model,
		RequestedModel: j.req.RequestedModel,
		K:              j.req.K,
		Eps:            j.req.Eps,
		Seed:           j.req.Seed,
		MatrixRows:     j.matrix.Rows,
		MatrixCols:     j.matrix.Cols,
		MatrixNNZ:      j.matrix.NNZ(),
		CacheHit:       j.cacheHit,
		StoreHit:       j.storeHit,
		CreatedAt:      j.created,
		StartedAt:      j.started,
		FinishedAt:     j.finished,
	}
	if j.result != nil {
		st.ElapsedMS = j.result.elapsed.Milliseconds()
		st.Cutsize = j.result.dec.Cutsize
		st.TotalVolume = j.result.dec.Stats.TotalVolume
		st.ImbalancePct = j.result.dec.Stats.ImbalancePct
	}
	return st
}
