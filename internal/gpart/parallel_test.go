package gpart

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"finegrain/internal/graph"
	"finegrain/internal/mlpart"
	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// TestWorkersDeterministic requires the same parts at every worker
// count: each branch's random stream is drawn before either branch runs,
// and branches write disjoint parts.
func TestWorkersDeterministic(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":   grid(40, 40),
		"random": randomG(rng.New(31), 1500, 5000),
	}
	for name, g := range graphs {
		for _, k := range []int{2, 5, 64} {
			var base []int
			for _, workers := range []int{1, 2, 8} {
				opts := mlpart.DefaultOptions()
				opts.Seed = 5
				opts.Workers = workers
				p, err := Partition(g, k, opts)
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", name, k, workers, err)
				}
				if base == nil {
					base = p.Parts
				} else if !slices.Equal(p.Parts, base) {
					t.Fatalf("%s k=%d: parts at workers=%d differ from workers=1", name, k, workers)
				}
			}
		}
	}
}

// TestTraceWorkerTrack checks the spans OBSERVABILITY.md documents for
// gpart, and that a branch spawned onto the executor records on a
// forked "gpart worker" track. Tracing must not change the parts.
func TestTraceWorkerTrack(t *testing.T) {
	g := grid(30, 30)
	opts := mlpart.DefaultOptions()
	opts.Workers = 2
	base, err := Partition(g, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Trace = obs.New()
	p, err := Partition(g, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Parts, base.Parts) {
		t.Fatal("traced partition differs from untraced")
	}
	var buf bytes.Buffer
	if err := opts.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Tid  int64  `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	tracks := map[int64]string{}
	spans := map[string]bool{}
	workerSpans := 0
	for _, ev := range out.TraceEvents {
		if ev.Name == "thread_name" {
			tracks[ev.Tid] = ev.Args.Name
		}
	}
	for _, ev := range out.TraceEvents {
		if ev.Cat != "gpart" {
			continue
		}
		spans[ev.Name] = true
		if tracks[ev.Tid] == "gpart worker" {
			workerSpans++
		}
	}
	for _, want := range []string{"run", "bisect", "coarsen", "coarsen.level", "initial.bisect", "refine"} {
		if !spans[want] {
			t.Errorf("span %q missing from trace; have %v", want, spans)
		}
	}
	if workerSpans == 0 {
		t.Errorf("no gpart span on a %q track; tracks %v", "gpart worker", tracks)
	}
	var names []string
	for _, name := range tracks {
		names = append(names, name)
	}
	slices.Sort(names)
	if got := fmt.Sprint(names); got != "[gpart run 0 gpart worker main]" {
		t.Errorf("tracks %s, want one run track and one worker track at Workers 2", got)
	}
}
