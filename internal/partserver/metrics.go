package partserver

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// metrics is the daemon's observability surface, hand-rolled in the
// Prometheus text exposition format (the repo stays dependency-free).
// Counters and gauges are lock-free atomics; histograms take a small
// mutex per observation, which is negligible next to a partition run.
type metrics struct {
	jobsSubmitted  atomic.Int64
	jobsDone       atomic.Int64
	jobsFailed     atomic.Int64
	jobsCanceled   atomic.Int64
	jobsQueued     atomic.Int64 // gauge: currently queued
	jobsRunning    atomic.Int64 // gauge: currently running
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	cacheEntries   atomic.Int64 // gauge
	partitions     atomic.Int64 // partition computations actually executed
	solves         atomic.Int64 // CG solves served on cached decompositions

	storeHits      atomic.Int64 // results loaded from the disk store
	storeMisses    atomic.Int64 // disk probes that found nothing usable
	storeEvictions atomic.Int64 // records evicted for the bytes budget
	storeRecords   atomic.Int64 // gauge: records on disk
	storeBytes     atomic.Int64 // gauge: bytes on disk

	proxyForwarded atomic.Int64 // submissions forwarded to their ring owner
	proxyErrors    atomic.Int64 // forwards that failed and fell back to local compute

	throttledQuota atomic.Int64 // 429s from a tenant token bucket
	throttledQueue atomic.Int64 // 429s from a full queue tier

	sessionsOpened     atomic.Int64 // solver sessions opened
	sessionsClosed     atomic.Int64 // sessions closed by clients (DELETE)
	sessionsEvictedTTL atomic.Int64 // sessions evicted idle past the TTL
	sessionsEvictedCap atomic.Int64 // sessions evicted for the MaxSessions bound
	sessionsActive     atomic.Int64 // gauge: sessions currently open
	sessionSolves      atomic.Int64 // solves served through session endpoints

	partitionSeconds *histogram
	phaseSeconds     map[string]*histogram // coarsen | initial | refine
	solveSeconds     *histogram
	solveRHS         *histogram // right-hand sides per solve request (batch width)

	// tenantQueued tracks queued jobs per tenant, exported as a labelled
	// gauge. The map only ever grows by tenants actually seen; zero-depth
	// tenants keep their series so a scrape after a burst shows the drop.
	tenantMu     sync.Mutex
	tenantQueued map[string]*int64
}

// tenantQueueAdd moves tenant's queue-depth gauge by delta.
func (m *metrics) tenantQueueAdd(tenant string, delta int64) {
	m.tenantMu.Lock()
	p, ok := m.tenantQueued[tenant]
	if !ok {
		p = new(int64)
		m.tenantQueued[tenant] = p
	}
	*p += delta
	m.tenantMu.Unlock()
}

var phaseNames = []string{"coarsen", "initial", "refine"}

func newMetrics() *metrics {
	m := &metrics{
		partitionSeconds: newHistogram(),
		phaseSeconds:     make(map[string]*histogram, len(phaseNames)),
		solveSeconds:     newHistogram(),
		solveRHS:         newHistogramBounds([]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		tenantQueued:     make(map[string]*int64),
	}
	for _, p := range phaseNames {
		m.phaseSeconds[p] = newHistogram()
	}
	return m
}

// histogram is a fixed-bucket latency histogram: powers of four from
// 1 ms to ~4400 s, wide enough for both toy matrices and long partition
// runs without tuning.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	bounds := make([]float64, 12)
	b := 0.001
	for i := range bounds {
		bounds[i] = b
		b *= 4
	}
	return newHistogramBounds(bounds)
}

// newHistogramBounds builds a histogram over explicit upper bounds, for
// distributions that are not latencies (e.g. batch widths).
func newHistogramBounds(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// write emits the histogram in Prometheus cumulative-bucket form.
// labels is either empty or a rendered `key="value"` list.
func (h *histogram) write(w io.Writer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, ub := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.total)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.total)
	}
}

// writePrometheus renders every metric. Counter/gauge names follow the
// Prometheus conventions (unit-suffixed counters end in _total).
func (m *metrics) writePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("partserver_jobs_submitted_total", "Jobs accepted (new computations queued).", m.jobsSubmitted.Load())
	counter("partserver_jobs_done_total", "Jobs finished successfully.", m.jobsDone.Load())
	counter("partserver_jobs_failed_total", "Jobs that ended in an error (including timeouts).", m.jobsFailed.Load())
	counter("partserver_jobs_canceled_total", "Jobs canceled by clients or shutdown.", m.jobsCanceled.Load())
	gauge("partserver_queue_depth", "Jobs waiting in the FIFO queue.", m.jobsQueued.Load())
	gauge("partserver_jobs_running", "Jobs currently partitioning.", m.jobsRunning.Load())
	counter("partserver_cache_hits_total", "Requests served from the decomposition cache or coalesced onto an in-flight duplicate.", m.cacheHits.Load())
	counter("partserver_cache_misses_total", "Requests that required a new partition computation.", m.cacheMisses.Load())
	counter("partserver_cache_evictions_total", "Decompositions evicted from the LRU cache.", m.cacheEvictions.Load())
	gauge("partserver_cache_entries", "Decompositions resident in the cache.", m.cacheEntries.Load())
	counter("partserver_partitions_total", "Partition computations actually executed (cache misses that ran).", m.partitions.Load())
	counter("partserver_solves_total", "CG solves served on cached decompositions.", m.solves.Load())
	counter("partserver_store_hits_total", "Results loaded from the disk store (in-memory cache misses saved from recomputation).", m.storeHits.Load())
	counter("partserver_store_misses_total", "Disk-store probes that found no usable record.", m.storeMisses.Load())
	counter("partserver_store_evictions_total", "Disk-store records evicted for the bytes budget.", m.storeEvictions.Load())
	gauge("partserver_store_records", "Decomposition records resident on disk.", m.storeRecords.Load())
	gauge("partserver_store_bytes", "Bytes of decomposition records resident on disk.", m.storeBytes.Load())
	counter("partserver_proxy_forwarded_total", "Submissions forwarded to their consistent-hash ring owner.", m.proxyForwarded.Load())
	counter("partserver_proxy_errors_total", "Forwards that failed and fell back to local compute.", m.proxyErrors.Load())
	counter("partserver_sessions_opened_total", "Solver sessions opened via POST /v1/jobs/{id}/sessions.", m.sessionsOpened.Load())
	counter("partserver_sessions_closed_total", "Solver sessions closed by clients via DELETE.", m.sessionsClosed.Load())
	gauge("partserver_sessions_active", "Solver sessions currently open.", m.sessionsActive.Load())
	counter("partserver_session_solves_total", "Solves served through session endpoints (POST /v1/sessions/{sid}/solve).", m.sessionSolves.Load())

	fmt.Fprintf(w, "# HELP partserver_sessions_evicted_total Solver sessions evicted by the server, by reason (ttl = idle past the session TTL, capacity = LRU eviction at the MaxSessions bound).\n")
	fmt.Fprintf(w, "# TYPE partserver_sessions_evicted_total counter\n")
	fmt.Fprintf(w, "partserver_sessions_evicted_total{reason=\"ttl\"} %d\n", m.sessionsEvictedTTL.Load())
	fmt.Fprintf(w, "partserver_sessions_evicted_total{reason=\"capacity\"} %d\n", m.sessionsEvictedCap.Load())

	fmt.Fprintf(w, "# HELP partserver_throttled_total Submissions rejected with 429, by reason (quota = tenant token bucket, queue = full queue tier).\n")
	fmt.Fprintf(w, "# TYPE partserver_throttled_total counter\n")
	fmt.Fprintf(w, "partserver_throttled_total{reason=\"quota\"} %d\n", m.throttledQuota.Load())
	fmt.Fprintf(w, "partserver_throttled_total{reason=\"queue\"} %d\n", m.throttledQueue.Load())

	fmt.Fprintf(w, "# HELP partserver_tenant_queue_depth Queued jobs per tenant (X-Tenant header; \"default\" when absent).\n")
	fmt.Fprintf(w, "# TYPE partserver_tenant_queue_depth gauge\n")
	m.tenantMu.Lock()
	tenants := make([]string, 0, len(m.tenantQueued))
	for t := range m.tenantQueued {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		fmt.Fprintf(w, "partserver_tenant_queue_depth{tenant=%q} %d\n", t, *m.tenantQueued[t])
	}
	m.tenantMu.Unlock()

	fmt.Fprintf(w, "# HELP partserver_partition_seconds Wall time of executed partition computations.\n")
	fmt.Fprintf(w, "# TYPE partserver_partition_seconds histogram\n")
	m.partitionSeconds.write(w, "partserver_partition_seconds", "")
	fmt.Fprintf(w, "# HELP partserver_phase_seconds Partitioner busy time per multilevel phase, hypergraph-model jobs only.\n")
	fmt.Fprintf(w, "# TYPE partserver_phase_seconds histogram\n")
	for _, p := range phaseNames {
		m.phaseSeconds[p].write(w, "partserver_phase_seconds", fmt.Sprintf("phase=%q", p))
	}
	fmt.Fprintf(w, "# HELP partserver_solve_seconds Wall time of CG solves, per solve (plan compilation included on the first).\n")
	fmt.Fprintf(w, "# TYPE partserver_solve_seconds histogram\n")
	m.solveSeconds.write(w, "partserver_solve_seconds", "")
	fmt.Fprintf(w, "# HELP partserver_solve_rhs Right-hand sides per solve request (block batch width), over both the job and session solve endpoints.\n")
	fmt.Fprintf(w, "# TYPE partserver_solve_rhs histogram\n")
	m.solveRHS.write(w, "partserver_solve_rhs", "")
}
