// Package obs is the repository's zero-dependency observability layer:
// a span tracer that exports Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing) and structured-logging helpers over the
// standard library's log/slog.
//
// The design constraint is that the *disabled* path costs nothing: a
// nil *Trace is a valid no-op tracer, every method on it (and on the
// zero Span and nil *Track it hands out) is a nil check, and no call on
// the disabled path allocates. That lets the multilevel partitioner and
// the SpMV execution engine keep their allocation-free hot paths
// (BENCH_partition.json, spmv's TestExecDoesNotAllocate) while being fully traceable
// when a caller opts in. See OBSERVABILITY.md for the span taxonomy and
// capture workflow.
//
// Usage:
//
//	tr := obs.New()                       // nil would disable everything below
//	tk := tr.NewTrack("run 0")            // one Perfetto track (thread row)
//	sp := tk.Begin("hgpart", "coarsen").Arg("level", 3)
//	...
//	sp.End()
//	tr.WriteJSON(w)                       // Chrome trace-event JSON
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxArgs bounds the key/value pairs one span carries. Spans live on the
// stack until End, so the bound keeps them small; taxonomy spans need at
// most three.
const maxArgs = 4

// defaultMaxEvents bounds a Trace's buffer. A full fine-grain partition
// at paper size emits tens of thousands of spans; the cap is generous
// enough for any single job while bounding a long-lived server trace.
const defaultMaxEvents = 1 << 19

// Arg is one key/value annotation on a span. Values are integers —
// level numbers, sizes, counts — which covers the taxonomy and keeps
// the hot-path span struct pointer-free beyond its strings.
type Arg struct {
	Key string
	Val int64
}

// event is one recorded trace event, timestamps relative to the trace
// epoch.
type event struct {
	name  string
	cat   string
	start time.Duration
	dur   time.Duration // < 0 marks an instant event
	tid   int64
	args  [maxArgs]Arg
	nargs int
}

// Trace accumulates spans from any number of goroutines. The zero value
// is not used directly: create with New, or pass nil for a no-op tracer
// (every method on a nil *Trace, and on anything it returns, is safe
// and allocation-free).
type Trace struct {
	epoch time.Time

	nextTID atomic.Int64 // track 0 is the implicit default track

	mu      sync.Mutex
	events  []event
	tracks  []string // name of track i+1 (track 0 is "main")
	dropped int64
	max     int
}

// New returns an empty enabled trace. The epoch (timestamp zero of the
// exported trace) is the moment of creation.
func New() *Trace {
	return &Trace{epoch: time.Now(), max: defaultMaxEvents}
}

// NewCapped is New with a custom event-buffer bound — for servers that
// keep one trace per retained job and need a tighter per-job ceiling.
// Events beyond the cap are counted in Dropped, not recorded.
func NewCapped(maxEvents int) *Trace {
	if maxEvents < 1 {
		maxEvents = 1
	}
	return &Trace{epoch: time.Now(), max: maxEvents}
}

// Enabled reports whether t records spans (i.e. t is non-nil).
func (t *Trace) Enabled() bool { return t != nil }

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded because the trace
// buffer was full.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// add appends one finished event, dropping it if the buffer is full.
func (t *Trace) add(ev event) {
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Track is one horizontal row of the exported trace — the unit Perfetto
// renders spans onto. Spans on one track must nest (a goroutine's call
// stack does); concurrent goroutines should each own a track. A nil
// *Track is a valid no-op.
type Track struct {
	t   *Trace
	tid int64
}

// NewTrack registers a named track and returns its handle. On a nil
// trace it returns nil, which every Track method accepts.
func (t *Trace) NewTrack(name string) *Track {
	if t == nil {
		return nil
	}
	tid := t.nextTID.Add(1)
	t.mu.Lock()
	t.tracks = append(t.tracks, name)
	t.mu.Unlock()
	return &Track{t: t, tid: tid}
}

// Begin opens a span on the trace's default track (tid 0). See
// Track.Begin.
func (t *Trace) Begin(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, cat: cat, name: name, start: time.Since(t.epoch)}
}

// Begin opens a span on this track. The returned Span is a stack value:
// annotate it with Arg and close it with End. On a nil track the zero
// Span is returned and every operation on it is a free no-op.
func (k *Track) Begin(cat, name string) Span {
	if k == nil {
		return Span{}
	}
	return Span{t: k.t, cat: cat, name: name, tid: k.tid, start: time.Since(k.t.epoch)}
}

// Fork registers a sibling track on the same trace — for work that
// leaves this track's goroutine (a spawned recursion branch must not
// interleave spans with its parent's row). Nil-safe.
func (k *Track) Fork(name string) *Track {
	if k == nil {
		return nil
	}
	return k.t.NewTrack(name)
}

// Instant records a zero-duration marker event on the track.
func (k *Track) Instant(cat, name string) {
	if k == nil {
		return
	}
	k.t.add(event{name: name, cat: cat, start: time.Since(k.t.epoch), dur: -1, tid: k.tid})
}

// AddComplete records a span with explicit wall-clock bounds — for
// phases whose start predates the tracer call site, like a job's queue
// wait. A nil receiver, nil track, or end before start is a no-op.
func (t *Trace) AddComplete(k *Track, cat, name string, start, end time.Time, args ...Arg) {
	if t == nil || end.Before(start) {
		return
	}
	var tid int64
	if k != nil {
		tid = k.tid
	}
	ev := event{name: name, cat: cat, start: start.Sub(t.epoch), dur: end.Sub(start), tid: tid}
	for _, a := range args {
		if ev.nargs == maxArgs {
			break
		}
		ev.args[ev.nargs] = a
		ev.nargs++
	}
	t.add(ev)
}

// Span is one in-progress trace region. It is a plain value — callers
// keep it on the stack, so opening and closing a span never allocates.
// The zero Span (from a disabled tracer) no-ops everywhere.
type Span struct {
	t     *Trace
	cat   string
	name  string
	tid   int64
	start time.Duration
	args  [maxArgs]Arg
	nargs int
}

// Arg annotates the span with an integer value, returning the updated
// span (chainable). Beyond maxArgs annotations are silently dropped.
func (s Span) Arg(key string, val int64) Span {
	if s.t == nil || s.nargs == maxArgs {
		return s
	}
	s.args[s.nargs] = Arg{Key: key, Val: val}
	s.nargs++
	return s
}

// End closes the span and records it. Calling End on the zero Span is a
// free no-op.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.add(event{
		name:  s.name,
		cat:   s.cat,
		start: s.start,
		dur:   time.Since(s.t.epoch) - s.start,
		tid:   s.tid,
		args:  s.args,
		nargs: s.nargs,
	})
}
