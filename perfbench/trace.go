package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"finegrain/internal/obs"
)

// benchCat is the trace category of the spans the benchmark records
// around its own calls into each layer's exported functions.
const benchCat = "bench"

// span is one complete ("X") event of a Chrome trace, with its self
// time: the duration minus the part covered by child spans on the same
// track. Times are microseconds, as the trace format stores them.
type span struct {
	Cat, Name string
	TID       int64
	TS, Dur   int64
	Self      int64
	Args      map[string]int64
}

type chromeEvent struct {
	Ph   string                     `json:"ph"`
	Name string                     `json:"name"`
	Cat  string                     `json:"cat"`
	TS   int64                      `json:"ts"`
	Dur  int64                      `json:"dur"`
	TID  int64                      `json:"tid"`
	Args map[string]json.RawMessage `json:"args"`
}

// parseChrome decodes Chrome trace-event JSON, as (*obs.Trace).WriteJSON
// writes it, into its complete spans with self times filled in.
// Metadata and instant events are skipped.
func parseChrome(data []byte) ([]span, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	spans := make([]span, 0, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sp := span{Cat: ev.Cat, Name: ev.Name, TID: ev.TID, TS: ev.TS, Dur: ev.Dur}
		for k, raw := range ev.Args {
			var v int64
			if json.Unmarshal(raw, &v) == nil {
				if sp.Args == nil {
					sp.Args = make(map[string]int64, len(ev.Args))
				}
				sp.Args[k] = v
			}
		}
		spans = append(spans, sp)
	}
	fillSelf(spans)
	return spans, nil
}

// fillSelf sets each span's Self to its duration minus the durations of
// its direct children. A child is a span on the same track that starts
// inside its parent; spans on one track nest like a call stack, so a
// stack of open spans per track finds every direct parent.
func fillSelf(spans []span) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := &spans[idx[a]], &spans[idx[b]]
		if x.TID != y.TID {
			return x.TID < y.TID
		}
		if x.TS != y.TS {
			return x.TS < y.TS
		}
		return x.Dur > y.Dur // an enclosing span sorts before what it holds
	})
	children := make([]int64, len(spans))
	var stack []int
	tid := int64(-1)
	for _, i := range idx {
		sp := &spans[i]
		if sp.TID != tid {
			stack, tid = stack[:0], sp.TID
		}
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if sp.TS < top.TS+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			children[stack[len(stack)-1]] += sp.Dur
		}
		stack = append(stack, i)
	}
	for i := range spans {
		self := spans[i].Dur - children[i]
		if self < 0 {
			// Timestamps and durations are truncated to microseconds
			// separately, so children can overrun a parent by a tick.
			self = 0
		}
		spans[i].Self = self
	}
}

type spanKey struct{ Cat, Name string }

// spanStats rolls up every span of one (category, name): count, total,
// self time, median and max, in microseconds.
type spanStats struct {
	Count      int
	Total      int64
	Self       int64
	Max        int64
	durs, self []float64
}

func (s *spanStats) Median() float64     { return median(s.durs) }
func (s *spanStats) MedianSelf() float64 { return median(s.self) }

type rollup map[spanKey]*spanStats

// summarize rolls up the spans keep accepts (nil keeps all).
func summarize(spans []span, keep func(*span) bool) rollup {
	r := rollup{}
	for i := range spans {
		sp := &spans[i]
		if keep != nil && !keep(sp) {
			continue
		}
		k := spanKey{sp.Cat, sp.Name}
		st := r[k]
		if st == nil {
			st = &spanStats{}
			r[k] = st
		}
		st.Count++
		st.Total += sp.Dur
		st.Self += sp.Self
		if sp.Dur > st.Max {
			st.Max = sp.Dur
		}
		st.durs = append(st.durs, float64(sp.Dur))
		st.self = append(st.self, float64(sp.Self))
	}
	return r
}

// get returns the roll-up of (cat, name), or nil when no span fed it.
func (r rollup) get(cat, name string) *spanStats { return r[spanKey{cat, name}] }

// totalS is the summed duration of (cat, name) in seconds and whether
// any span fed it.
func (r rollup) totalS(cat, name string) (float64, bool) {
	st := r.get(cat, name)
	if st == nil {
		return 0, false
	}
	return float64(st.Total) / 1e6, true
}

// selfS is like totalS for self time.
func (r rollup) selfS(cat, name string) (float64, bool) {
	st := r.get(cat, name)
	if st == nil {
		return 0, false
	}
	return float64(st.Self) / 1e6, true
}

// spansOf exports tr through WriteJSON and parses it back, so every
// per-layer number is read from the same Chrome trace a user would load.
func spansOf(tr *obs.Trace) ([]span, error) {
	if tr.Dropped() > 0 {
		return nil, fmt.Errorf("trace dropped %d events", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return parseChrome(buf.Bytes())
}
