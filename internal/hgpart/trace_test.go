package hgpart

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"finegrain/internal/obs"
	"finegrain/internal/rng"
)

// TestTraceDeterminism asserts the invariant Options.Trace documents:
// tracing never consumes randomness or alters a decision, so a traced
// partition is byte-identical to an untraced one — at any worker count.
func TestTraceDeterminism(t *testing.T) {
	h := randomHG(rng.New(41), 600, 500)
	opts := DefaultOptions()
	opts.Workers = 1
	base, err := Partition(h, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		topts := opts
		topts.Workers = workers
		topts.Trace = obs.New()
		p, err := Partition(h, 8, topts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(p.Parts, base.Parts) {
			t.Fatalf("workers=%d: traced partition differs from untraced", workers)
		}
		if topts.Trace.Len() == 0 {
			t.Fatalf("workers=%d: trace recorded no spans", workers)
		}
		var buf bytes.Buffer
		if err := topts.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("workers=%d: invalid trace JSON", workers)
		}
	}
}

// TestTraceSpanTaxonomy checks that one traced partition emits the span
// names OBSERVABILITY.md documents for hgpart.
func TestTraceSpanTaxonomy(t *testing.T) {
	h := randomHG(rng.New(7), 400, 350)
	opts := DefaultOptions()
	opts.Workers = 2
	// Between the coarsening target (100) and the input size, so fine levels use the
	// parallel rounds (coarsen.round / fm.round) while coarse levels use
	// the serial kernels (fm.pass) — both span families must appear.
	opts.parallelThreshold = 256
	opts.Trace = obs.New()
	if _, err := Partition(h, 4, opts); err != nil {
		t.Fatal(err)
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
	seen := map[string]bool{}
	tracks := map[string]bool{}
	workerTracks := 0
	for _, ev := range out.TraceEvents {
		if ev.Cat == "hgpart" {
			seen[ev.Name] = true
		}
		if ev.Name == "thread_name" {
			tracks[ev.Args.Name] = true
			if ev.Args.Name == "hgpart worker" {
				workerTracks++
			}
		}
	}
	// Branches and round helpers spawned onto the executor record on a
	// forked track with this name.
	if !tracks["hgpart worker"] {
		t.Errorf("no %q track; have %v", "hgpart worker", tracks)
	}
	// Workers 2 is one worker slot, so one forked track.
	if workerTracks != 1 {
		t.Errorf("%d %q tracks, want one at Workers 2", workerTracks, "hgpart worker")
	}
	for _, want := range []string{"run", "bisect", "coarsen", "coarsen.level",
		"coarsen.round", "initial.bisect", "refine", "fm.pass", "fm.round"} {
		if !seen[want] {
			t.Errorf("span %q missing from trace; have %v", want, seen)
		}
	}
}

// TestTraceInheritedLevels checks the inherited arg of coarsen.level
// spans: a free run takes some levels from its parents' ladders, while
// a run whose every branch has fixed vertices clusters every level
// afresh and records inherited 0 throughout.
func TestTraceInheritedLevels(t *testing.T) {
	h := randomHG(rng.New(17), 3000, 2500)
	const k = 8
	fixed := make([]int, h.NumVertices())
	for v := range fixed {
		fixed[v] = -1
		if v%9 == 0 {
			fixed[v] = v % k
		}
	}
	for _, tc := range []struct {
		name  string
		fixed []int
	}{{"free", nil}, {"fixed", fixed}} {
		opts := DefaultOptions()
		opts.Workers = 2
		opts.coarsenTo = 20
		opts.Trace = obs.New()
		if _, err := PartitionFixed(h, k, tc.fixed, opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := opts.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Cat  string         `json:"cat"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		count := map[float64]int{}
		for _, ev := range out.TraceEvents {
			if ev.Cat != "hgpart" || ev.Name != "coarsen.level" {
				continue
			}
			inh, ok := ev.Args["inherited"].(float64)
			if !ok {
				t.Fatalf("%s: coarsen.level span without an inherited arg: %v", tc.name, ev.Args)
			}
			count[inh]++
		}
		switch {
		case tc.fixed == nil && (count[1] == 0 || count[0] == 0):
			t.Errorf("free run: %d inherited and %d clustered levels, want some of each", count[1], count[0])
		case tc.fixed != nil && count[1] != 0:
			t.Errorf("fixed run: %d inherited levels, want 0 (of %d)", count[1], count[0]+count[1])
		}
	}
}
