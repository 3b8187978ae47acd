// Package partserver is the resident partitioning service: a daemon
// that accepts decomposition jobs over HTTP/JSON, runs them
// asynchronously on a bounded worker pool behind a FIFO queue, caches
// results content-addressed in an LRU, and exposes health and
// Prometheus-style metrics.
//
// The economics follow the paper's workload model: an iterative solver
// amortizes one decomposition over thousands of SpMVs, so the
// decomposition should be computed once and served many times. The
// cache is sound because the partitioner is deterministic — identical
// (matrix, model, K, ε, seed) requests produce byte-identical
// decompositions at any worker count, so a cache hit is
// indistinguishable from a recomputation.
package partserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	finegrain "finegrain"
	"finegrain/internal/obs"
	"finegrain/internal/store"
)

// Config sizes the server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// Workers is the number of concurrent partition computations
	// (default 2). Each computation may itself use PartWorkers
	// goroutines.
	Workers int
	// QueueDepth bounds the FIFO of jobs waiting for a worker
	// (default 64); submissions beyond it are rejected with 503.
	QueueDepth int
	// CacheSize bounds the decomposition LRU (default 128 entries).
	CacheSize int
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// evicted beyond it (default 4096).
	MaxJobs int
	// DefaultTimeout caps a job's run time when the request does not
	// set one (default 10 minutes); MaxTimeout caps what a request may
	// ask for (default 1 hour).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// PartWorkers is the partitioner goroutine bound per job when the
	// request does not set one (0 = GOMAXPROCS).
	PartWorkers int
	// MaxBodyBytes bounds an upload body (default 256 MiB).
	MaxBodyBytes int64
	// MaxNNZ bounds the entries (and dimensions) of an uploaded matrix,
	// enforced from the Matrix Market size line before any
	// size-proportional allocation (0 = bounded only by MaxBodyBytes).
	MaxNNZ int
	// Log receives structured request and job-lifecycle records (nil
	// discards them). Every record carries the request_id propagated
	// from the X-Request-ID header (or generated when absent).
	Log *slog.Logger
	// TraceEvents bounds each job's span-trace buffer (default 65536
	// events); spans beyond it are dropped, not recorded. Traces are
	// served by GET /v1/jobs/{id}/trace.
	TraceEvents int

	// StoreDir, when set, enables the disk-backed decomposition store:
	// every computed result is persisted there and probed on cache
	// misses, so results survive restarts and replicas pointed at the
	// same directory share them. StoreMaxBytes bounds the directory's
	// footprint with LRU eviction (0 = unbounded).
	StoreDir      string
	StoreMaxBytes int64

	// Peers is the static fleet membership: the base URLs of every
	// replica (including this one), identical on all replicas. When at
	// least two are listed, submissions are routed by consistent hashing
	// over the content key — the non-owner proxies to the owner so
	// fleet-wide duplicates coalesce in one process. SelfURL is this
	// replica's entry in Peers.
	Peers   []string
	SelfURL string

	// TenantRate, when positive, meters new computations per tenant
	// (X-Tenant header) with a token bucket of TenantRate tokens per
	// second and TenantBurst capacity (default 8). Requests over quota
	// get 429 with Retry-After. Cache and store hits are never metered.
	TenantRate  float64
	TenantBurst int

	// SessionTTL bounds a solver session's idle lifetime: a session
	// untouched for this long is evicted and its compiled plan released
	// unless another live session shares it (default 15 minutes).
	// MaxSessions bounds concurrently open sessions; opening one beyond
	// it evicts the least-recently-used session (default 1024).
	SessionTTL  time.Duration
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize < 1 {
		c.CacheSize = 128
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Hour
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Log == nil {
		c.Log = obs.NopLogger()
	}
	if c.TraceEvents <= 0 {
		c.TraceEvents = 1 << 16
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = 8
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 1024
	}
	return c
}

// Server is the partitioning service. Create with New, mount Handler
// on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *metrics
	cache   *decompCache
	store   *store.Store // nil when StoreDir is unset
	ring    *ring        // nil when fewer than two peers
	adm     *admission   // nil when TenantRate is unset

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Two queue tiers: workers prefer tasksHi (interactive) and drain
	// tasksLo (batch) only when no interactive job is waiting. Each tier
	// has the full QueueDepth.
	tasksHi chan *job
	tasksLo chan *job
	wg      sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*job
	order    []string        // submission order, for listing and eviction
	inflight map[string]*job // cache key → queued/running primary job

	// sessions is the solver-session registry; sessionSeq issues IDs and
	// never decreases, so an absent-but-plausible ID can be classified
	// as expired rather than unknown.
	sessions   map[string]*session
	sessionSeq int

	// beforePartition, when set (tests only), runs on the worker
	// goroutine after a job turns running and before the partitioner
	// starts.
	beforePartition func(*job)
}

// New builds a Server and starts its worker pool. It fails only when
// the configured store directory cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Log,
		metrics:    newMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		tasksHi:    make(chan *job, cfg.QueueDepth),
		tasksLo:    make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		sessions:   make(map[string]*session),
	}
	s.cache = newDecompCache(cfg.CacheSize, func(res *jobResult) { res.releasePlan() })
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreMaxBytes, cfg.Log)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
		s.metrics.storeRecords.Store(int64(st.Len()))
		s.metrics.storeBytes.Store(st.Bytes())
	}
	if len(cfg.Peers) > 1 {
		s.ring = newRing(cfg.SelfURL, cfg.Peers)
	}
	if cfg.TenantRate > 0 {
		s.adm = newAdmission(cfg.TenantRate, cfg.TenantBurst)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// The sweeper is not in wg: Shutdown waits for the workers first and
	// cancels baseCtx after, which is what stops the sweeper.
	go s.sessionSweeper()
	return s, nil
}

// errDraining rejects submissions during shutdown.
var errDraining = errors.New("server is shutting down")

// submit registers a job for the prepared request. key is the content
// address computed by the handler (possibly while the upload was still
// streaming); reqID is the request ID of the submitting HTTP request,
// recorded on the job and echoed in its status JSON. The returned
// status reflects one of four outcomes: an in-memory cache hit (job
// born done), a disk-store hit (job born done, result installed in the
// cache), a coalesced duplicate (the status of the identical in-flight
// job), or a newly queued computation.
func (s *Server) submit(req JobRequest, m *finegrain.Matrix, key, reqID string) (JobStatus, error) {
	if st, ok, err := s.lookup(req, m, key, reqID); ok || err != nil {
		return st, err
	}

	// A new computation will be enqueued: this is the admission point.
	// Hits never get here, so quota throttling cannot deny a result the
	// fleet already has.
	if s.adm != nil {
		if err := s.adm.admit(req.Tenant, time.Now()); err != nil {
			s.metrics.throttledQuota.Add(1)
			s.log.Warn("job throttled", "request_id", reqID, "tenant", req.Tenant, "reason", "quota")
			return JobStatus{}, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, errDraining
	}
	// The store probe ran outside the lock; an identical request may
	// have slipped in. Re-checking keeps the inflight map one-per-key.
	if st, ok := s.lookupLocked(key, req, m, reqID); ok {
		return st, nil
	}

	queue := s.tasksHi
	if req.Priority == PriorityBatch {
		queue = s.tasksLo
	}
	j := s.newJobLocked(key, req, m, reqID)
	select {
	case queue <- j:
	default:
		// Queue tier full: unregister the record we just created and
		// push back on the client instead of queueing unboundedly.
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.metrics.throttledQueue.Add(1)
		s.log.Warn("job throttled", "request_id", reqID, "tenant", req.Tenant,
			"reason", "queue", "priority", req.Priority)
		return JobStatus{}, &errThrottled{reason: "queue", retryAfter: time.Second}
	}
	s.inflight[key] = j
	s.metrics.cacheMisses.Add(1)
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.jobsQueued.Add(1)
	s.metrics.tenantQueueAdd(req.Tenant, 1)
	s.log.Info("job queued", "job_id", j.id, "request_id", reqID,
		"model", req.Model, "k", req.K, "rows", m.Rows, "nnz", m.NNZ(),
		"tenant", req.Tenant, "priority", req.Priority)
	return j.status(), nil
}

// lookup serves the request from what the fleet already has: the
// in-memory cache, an identical in-flight job, or the disk store. ok
// reports whether a status was produced. m may be nil (streaming early
// dedup, where the matrix was never assembled); hit statuses then
// report the stored decomposition's matrix.
func (s *Server) lookup(req JobRequest, m *finegrain.Matrix, key, reqID string) (JobStatus, bool, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, false, errDraining
	}
	if st, ok := s.lookupLocked(key, req, m, reqID); ok {
		s.mu.Unlock()
		return st, true, nil
	}
	s.mu.Unlock()

	if s.store == nil {
		return JobStatus{}, false, nil
	}
	res, ok := s.loadFromStore(key)
	if !ok {
		return JobStatus{}, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, false, errDraining
	}
	// The disk read ran unlocked; a racing identical request may have
	// produced a hit of its own by now. Prefer it — one result per key.
	if st, ok := s.lookupLocked(key, req, m, reqID); ok {
		return st, true, nil
	}
	if ev := s.cache.add(key, res); ev > 0 {
		s.metrics.cacheEvictions.Add(int64(ev))
	}
	s.metrics.cacheEntries.Store(int64(s.cache.len()))
	return s.hitJobLocked(key, req, m, reqID, res, true), true, nil
}

// lookupLocked checks the in-memory cache and the in-flight map (caller
// holds mu). m may be nil; cache-hit statuses then report the cached
// decomposition's matrix.
func (s *Server) lookupLocked(key string, req JobRequest, m *finegrain.Matrix, reqID string) (JobStatus, bool) {
	if res, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		return s.hitJobLocked(key, req, m, reqID, res, false), true
	}
	if primary, ok := s.inflight[key]; ok {
		// An identical computation is already queued or running; the
		// duplicate attaches to it rather than consuming a queue slot.
		s.metrics.cacheHits.Add(1)
		s.log.Info("job coalesced", "job_id", primary.id, "request_id", reqID,
			"primary_request_id", primary.reqID)
		st := primary.status()
		st.Coalesced = true
		return st, true
	}
	return JobStatus{}, false
}

// hitJobLocked registers a job born done on res, a result found in the
// cache or, with storeHit, loaded from the disk store (caller holds mu).
// m may be nil; the status then reports res's matrix.
func (s *Server) hitJobLocked(key string, req JobRequest, m *finegrain.Matrix, reqID string,
	res *jobResult, storeHit bool) JobStatus {
	if m == nil {
		m = res.dec.Assignment.A
	}
	j := s.newJobLocked(key, req, m, reqID)
	j.state = JobDone
	j.cacheHit = true
	j.storeHit = storeHit
	j.started = j.created
	j.finished = j.created
	j.result = res
	j.trace = res.trace
	close(j.done)
	msg := "job served from cache"
	if storeHit {
		msg = "job served from store"
	}
	s.log.Info(msg, "job_id", j.id, "request_id", reqID, "model", req.Model, "k", req.K)
	return j.status()
}

// loadFromStore probes the disk store for key and rebuilds a servable
// result from the record: the assignment comes back verbatim, the
// communication statistics are re-measured (measurement is
// deterministic, so nothing is lost by not persisting them). The
// rebuilt result carries a fresh trace whose only span is store.load —
// the honest provenance of a result this process did not compute.
func (s *Server) loadFromStore(key string) (*jobResult, bool) {
	t0 := time.Now()
	rec, err := s.store.Get(key)
	if err != nil {
		s.metrics.storeMisses.Add(1)
		s.syncStoreGauges()
		return nil, false
	}
	res, err := resultFromRecord(rec, obs.NewCapped(s.cfg.TraceEvents))
	if err != nil {
		// Decoded but unusable (should not happen past the codec digest);
		// treat as a miss rather than fail the request.
		s.log.Warn("store record unusable", "key", key, "err", err)
		s.metrics.storeMisses.Add(1)
		return nil, false
	}
	res.trace.AddComplete(nil, "partserver", "store.load", t0, time.Now())
	s.metrics.storeHits.Add(1)
	s.syncStoreGauges()
	return res, true
}

// syncStoreGauges refreshes the store gauges from the index.
func (s *Server) syncStoreGauges() {
	s.metrics.storeRecords.Store(int64(s.store.Len()))
	s.metrics.storeBytes.Store(s.store.Bytes())
}

// resultFromRecord rebuilds a jobResult from a persisted record.
func resultFromRecord(rec *store.Record, tr *obs.Trace) (*jobResult, error) {
	asg := &finegrain.Assignment{
		K:            rec.K,
		A:            rec.Matrix,
		NonzeroOwner: rec.NonzeroOwner,
		XOwner:       rec.XOwner,
		YOwner:       rec.YOwner,
	}
	if err := asg.Validate(); err != nil {
		return nil, err
	}
	stats, err := finegrain.Measure(asg)
	if err != nil {
		return nil, err
	}
	var ps *finegrain.PartitionStats
	if len(rec.PartStats) > 0 {
		ps = new(finegrain.PartitionStats)
		if json.Unmarshal(rec.PartStats, ps) != nil {
			ps = nil // stats are advisory; a bad blob is not worth a miss
		}
	}
	dec := &finegrain.Decomposition{Assignment: asg, Stats: stats, Cutsize: rec.Cutsize, PartStats: ps}
	return &jobResult{dec: dec, elapsed: rec.Elapsed, trace: tr}, nil
}

// recordFromResult is the inverse of resultFromRecord, built when a
// computed decomposition is persisted.
func recordFromResult(req JobRequest, res *jobResult) *store.Record {
	asg := res.dec.Assignment
	rec := &store.Record{
		Model:        req.Model,
		K:            asg.K,
		Eps:          req.Eps,
		Seed:         int64(req.Seed),
		Cutsize:      res.dec.Cutsize,
		Elapsed:      res.elapsed,
		Matrix:       asg.A,
		NonzeroOwner: asg.NonzeroOwner,
		XOwner:       asg.XOwner,
		YOwner:       asg.YOwner,
	}
	if res.dec.PartStats != nil {
		if b, err := json.Marshal(res.dec.PartStats); err == nil {
			rec.PartStats = b
		}
	}
	return rec
}

// newJobLocked allocates and registers a job record (caller holds mu).
// The job's trace is created here so its epoch — timestamp zero of the
// exported Chrome trace — is the submission instant, putting the queue
// wait on the timeline.
func (s *Server) newJobLocked(key string, req JobRequest, m *finegrain.Matrix, reqID string) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextID),
		key:     key,
		req:     req,
		reqID:   reqID,
		matrix:  m,
		state:   JobQueued,
		created: time.Now(),
		trace:   obs.NewCapped(s.cfg.TraceEvents),
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictJobsLocked()
	return j
}

// evictJobsLocked drops the oldest terminal job records beyond MaxJobs.
func (s *Server) evictJobsLocked() {
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if len(s.jobs) > s.cfg.MaxJobs && j.state.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) getJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob withdraws a queued job or cancels a running one. Canceling
// a terminal job is a no-op; unknown IDs report false.
func (s *Server) cancelJob(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, false
	}
	switch j.state {
	case JobQueued:
		s.finalizeLocked(j, JobCanceled, errors.New("canceled by client"))
	case JobRunning:
		if j.cancel != nil {
			j.cancel() // the worker observes the context and finalizes
		}
	}
	st := j.status()
	s.mu.Unlock()
	return st, true
}

// finalizeLocked moves a job to a terminal state (caller holds mu).
func (s *Server) finalizeLocked(j *job, state JobState, err error) {
	if j.state.terminal() {
		return
	}
	prev := j.state
	j.state = state
	if err != nil {
		j.err = err.Error()
		if state == JobCanceled {
			j.errCode = finegrain.Canceled
		} else {
			j.errCode = finegrain.ErrorCodeOf(err)
		}
	}
	j.finished = time.Now()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	switch prev {
	case JobQueued:
		s.metrics.jobsQueued.Add(-1)
		s.metrics.tenantQueueAdd(j.req.Tenant, -1)
	case JobRunning:
		s.metrics.jobsRunning.Add(-1)
	}
	switch state {
	case JobDone:
		s.metrics.jobsDone.Add(1)
	case JobFailed:
		s.metrics.jobsFailed.Add(1)
	case JobCanceled:
		s.metrics.jobsCanceled.Add(1)
	}
	close(j.done)
}

// worker is one slot of the computation pool: it pulls jobs until both
// queue tiers are closed by Shutdown. Interactive jobs are preferred —
// a worker only takes a batch job when no interactive job is waiting —
// but within a tier order stays FIFO, and a waiting batch job is never
// starved forever by an empty-but-open interactive queue (the blocking
// select takes whichever tier delivers first).
func (s *Server) worker() {
	defer s.wg.Done()
	hi, lo := s.tasksHi, s.tasksLo
	// A closed tier is set to nil, and a nil channel never fires, so the
	// two selects serve every combination of open and closed tiers.
	for hi != nil || lo != nil {
		// Fast path: an interactive job is already waiting.
		select {
		case j, ok := <-hi:
			if ok {
				s.runJob(j)
			} else {
				hi = nil
			}
			continue
		default:
		}
		select {
		case j, ok := <-hi:
			if ok {
				s.runJob(j)
			} else {
				hi = nil
			}
		case j, ok := <-lo:
			if ok {
				s.runJob(j)
			} else {
				lo = nil
			}
		}
	}
}

// runJob executes one queued job end to end.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != JobQueued {
		// Canceled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	timeout := s.cfg.DefaultTimeout
	if j.req.TimeoutMS > 0 {
		timeout = time.Duration(j.req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	j.cancel = cancel
	s.metrics.jobsQueued.Add(-1)
	s.metrics.tenantQueueAdd(j.req.Tenant, -1)
	s.metrics.jobsRunning.Add(1)
	hook := s.beforePartition
	s.mu.Unlock()
	defer cancel()

	if hook != nil {
		hook(j)
	}

	// The queue wait predates this goroutine; record it with explicit
	// bounds so the trace timeline starts at submission.
	j.trace.AddComplete(nil, "partserver", "queue.wait", j.created, j.started)
	s.log.Info("job running", "job_id", j.id, "request_id", j.reqID,
		"queue_wait_ms", j.started.Sub(j.created).Milliseconds())

	workers := j.req.Workers
	if workers == 0 {
		workers = s.cfg.PartWorkers
	}
	opts := finegrain.Options{
		Ctx:          ctx,
		Seed:         j.req.Seed,
		Eps:          j.req.Eps,
		Workers:      workers,
		CollectStats: true,
		Trace:        j.trace,
	}
	t0 := time.Now()
	dec, err := finegrain.DecomposeModel(j.req.Model, j.matrix, j.req.K, opts)
	elapsed := time.Since(t0)

	var res *jobResult
	if err == nil {
		res = &jobResult{dec: dec, elapsed: elapsed, trace: j.trace}
		if s.store != nil {
			// Persist before the job turns done: once a client observes
			// "done", the result survives a restart. Disk IO runs outside
			// the server lock.
			p0 := time.Now()
			ev, perr := s.store.Put(j.key, recordFromResult(j.req, res))
			j.trace.AddComplete(nil, "partserver", "store.save", p0, time.Now())
			if perr != nil {
				// A full or broken disk degrades durability, not service.
				s.log.Warn("store put failed", "job_id", j.id, "key", j.key, "err", perr)
			} else if ev > 0 {
				s.metrics.storeEvictions.Add(int64(ev))
			}
			s.syncStoreGauges()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			s.finalizeLocked(j, JobCanceled, errors.New("canceled while running"))
		case errors.Is(err, context.DeadlineExceeded):
			s.finalizeLocked(j, JobFailed, fmt.Errorf("job timed out after %v: %w", elapsed.Round(time.Millisecond), err))
		default:
			s.finalizeLocked(j, JobFailed, err)
		}
		s.log.Warn("job failed", "job_id", j.id, "request_id", j.reqID,
			"state", string(j.state), "error", j.err, "elapsed_ms", elapsed.Milliseconds())
		return
	}
	j.result = res
	s.metrics.partitions.Add(1)
	s.metrics.partitionSeconds.observe(elapsed.Seconds())
	if ps := dec.PartStats; ps != nil {
		s.metrics.phaseSeconds["coarsen"].observe(ps.CoarsenTime.Seconds())
		s.metrics.phaseSeconds["initial"].observe(ps.InitialTime.Seconds())
		s.metrics.phaseSeconds["refine"].observe(ps.RefineTime.Seconds())
	}
	if ev := s.cache.add(j.key, res); ev > 0 {
		s.metrics.cacheEvictions.Add(int64(ev))
	}
	s.metrics.cacheEntries.Store(int64(s.cache.len()))
	s.finalizeLocked(j, JobDone, nil)
	s.log.Info("job done", "job_id", j.id, "request_id", j.reqID,
		"elapsed_ms", elapsed.Milliseconds(), "cutsize", dec.Cutsize,
		"total_volume", dec.Stats.TotalVolume)
}

// Shutdown drains the server: submissions are rejected, every job
// still in the queue is marked canceled, and running jobs get until
// ctx's deadline to finish before their contexts are hard-canceled.
// It returns nil once all workers have exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, q := range []chan *job{s.tasksHi, s.tasksLo} {
		drain:
			for {
				select {
				case j := <-q:
					s.finalizeLocked(j, JobCanceled, errDraining)
				default:
					break drain
				}
			}
			close(q)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline passed: stop running jobs mid-search.
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.closeSessions()
	return nil
}
