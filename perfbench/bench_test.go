package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"finegrain/internal/matgen"
	"finegrain/internal/obs"
)

func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tailOf must sort
		}
		return xs
	}
	for _, n := range []int{0, 1, 10} {
		if tl, ok := tailOf(seq(n)); ok {
			t.Errorf("n=%d: got tail %+v, want none", n, tl)
		}
	}
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{11, 100.0 / 11, 1}, // only the minimum has ten samples beyond it
		{19, 100.0 * 9 / 19, 9},
		{20, 50, 10},
		{100, 90, 90},
		{1000, 99, 990},
		{20000, 99.9, 19980},
	} {
		tl, ok := tailOf(seq(c.n))
		if !ok || math.Abs(tl.Pct-c.pct) > 1e-9 || tl.Value != c.value || tl.N != c.n {
			t.Errorf("n=%d: got %+v ok=%v, want p%g = %g", c.n, tl, ok, c.pct, c.value)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", c.n, beyond, minBeyond)
		}
	}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	// Track 1: parent [0,100) holds siblings A [10,30) and B [40,70);
	// B holds C [45,55). D [100,105) starts where the parent ends, so it
	// is the parent's sibling. Track 2 overlaps the parent in time but
	// is another track, so it is nobody's child.
	doc := `{"displayTimeUnit":"ms","traceEvents":[
		{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"main"}},
		{"ph":"X","name":"C","cat":"t","ts":45,"dur":10,"pid":1,"tid":1},
		{"ph":"X","name":"A","cat":"t","ts":10,"dur":20,"pid":1,"tid":1},
		{"ph":"X","name":"B","cat":"t","ts":40,"dur":30,"pid":1,"tid":1,"args":{"n":8}},
		{"ph":"X","name":"P","cat":"t","ts":0,"dur":100,"pid":1,"tid":1},
		{"ph":"X","name":"D","cat":"t","ts":100,"dur":5,"pid":1,"tid":1},
		{"ph":"i","s":"t","name":"mark","cat":"t","ts":50,"pid":1,"tid":1},
		{"ph":"X","name":"O","cat":"t","ts":5,"dur":50,"pid":1,"tid":2}
	]}`
	spans, err := parseChrome([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"P": 50, "A": 20, "B": 20, "C": 10, "D": 5, "O": 50}
	if len(spans) != len(want) {
		t.Fatalf("parsed %d spans, want %d", len(spans), len(want))
	}
	for _, sp := range spans {
		if sp.Self != want[sp.Name] {
			t.Errorf("%s: self %d, want %d", sp.Name, sp.Self, want[sp.Name])
		}
	}
	if spans[2].Args["n"] != 8 {
		t.Errorf("B args = %v, want n=8", spans[2].Args)
	}

	// Two spans of one name roll up into count, total, self, median, max.
	ru := summarize(append(spans, span{Cat: "t", Name: "A", Dur: 40, Self: 15}), nil)
	a := ru.get("t", "A")
	if a.Count != 2 || a.Total != 60 || a.Self != 35 || a.Max != 40 || a.Median() != 30 {
		t.Errorf("A roll-up = %+v median %g", a, a.Median())
	}
	if ru.get("t", "missing") != nil {
		t.Error("a name no span fed must be absent")
	}
}

func TestParseChromeReadsObsTraces(t *testing.T) {
	tr := obs.New()
	outer := tr.Begin("x", "outer").Arg("k", 64)
	tk := tr.NewTrack("worker")
	inner := tk.Begin("x", "inner")
	inner.End()
	outer.End()
	spans, err := spansOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	ru := summarize(spans, nil)
	if ru.get("x", "outer") == nil || ru.get("x", "inner") == nil {
		t.Fatalf("roll-up %v lacks a span", ru)
	}
	for _, sp := range spans {
		if sp.Name == "outer" && sp.Args["k"] != 64 {
			t.Errorf("outer args %v", sp.Args)
		}
		if sp.Name == "outer" && sp.Self != sp.Dur {
			t.Errorf("a span on another track is not a child: self %d, dur %d", sp.Self, sp.Dur)
		}
	}
}

func TestSPDFormIsSymmetricAndDiagonallyDominant(t *testing.T) {
	spec, err := matgen.Lookup("nl") // unsymmetric, with empty diagonals
	if err != nil {
		t.Fatal(err)
	}
	a := spdForm(spec.Scaled(0.05).Generate(3))
	if a.Rows != a.Cols || a.NNZ() == 0 {
		t.Fatalf("shape %dx%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		var diag, off float64
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if p > a.RowPtr[i] && a.ColIdx[p-1] >= j {
				t.Fatalf("row %d: columns not strictly ascending", i)
			}
			if j == i {
				diag = a.Val[p]
				continue
			}
			off += math.Abs(a.Val[p])
			if a.At(j, i) != a.Val[p] {
				t.Fatalf("a[%d][%d]=%g but a[%d][%d]=%g", i, j, a.Val[p], j, i, a.At(j, i))
			}
		}
		if !(diag > off) {
			t.Fatalf("row %d: diagonal %g not above off-diagonal sum %g", i, diag, off)
		}
	}
}

func TestMultiplyMatches(t *testing.T) {
	want := []float64{1, -2, 1e12}
	if i, ok := multiplyMatches([]float64{1 + 1e-10, -2, 1e12 + 100}, want); !ok {
		t.Errorf("entries within the bound rejected at %d", i)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 1.1} {
		if i, ok := multiplyMatches([]float64{1, bad, 1e12}, want); ok || i != 1 {
			t.Errorf("y[1]=%g: got index %d ok=%v, want a mismatch at 1", bad, i, ok)
		}
	}
}

func TestBalanced(t *testing.T) {
	// Four parts of average 100: ε = 3% allows 103.
	if !balanced([]int{103, 99, 99, 99}, 0.03, 0) {
		t.Error("a load within ε rejected")
	}
	if balanced([]int{110, 97, 97, 96}, 0.03, 0) {
		t.Error("a 2D load past ε accepted")
	}
	// A 1D model may carry one heaviest row beyond ε, and no more.
	if !balanced([]int{110, 97, 97, 96}, 0.03, 8) {
		t.Error("a 1D load within ε plus one row rejected")
	}
	if balanced([]int{130, 90, 90, 90}, 0.03, 8) {
		t.Error("a 1D load past ε plus one row accepted")
	}
}

func TestStreamProbe(t *testing.T) {
	if arr, fits := streamProbe(300<<20, 8<<30); arr != 1200<<20 || fits {
		t.Errorf("300 MiB LLC, 8 GiB available: array %d MiB fits=%v, want 1200 MiB and no fit", arr>>20, fits)
	}
	if arr, fits := streamProbe(8<<20, 8<<30); arr != 32<<20 || !fits {
		t.Errorf("8 MiB LLC, 8 GiB available: array %d MiB fits=%v, want 32 MiB and a fit", arr>>20, fits)
	}
	if _, fits := streamProbe(0, 8<<30); fits {
		t.Error("an unknown LLC must skip the probe")
	}
	if _, fits := streamProbe(8<<20, 0); fits {
		t.Error("unknown available memory must skip the probe")
	}
	a, b, c := make([]float64, 4), []float64{1, 2, 3, 4}, []float64{1, 1, 2, 2}
	triad(a, b, c, 3)
	for i, want := range []float64{4, 5, 9, 10} {
		if a[i] != want {
			t.Fatalf("triad a=%v", a)
		}
	}
	if g := triadGBps(1<<12, 2); !(g > 0) {
		t.Errorf("triad bandwidth %g", g)
	}
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs the command on matrices scaled down by scale and decodes
// its last line.
func runSmall(t *testing.T, scale float64, broken string, args ...string) (int, runResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--seed", "1", "--seconds", "0.3"}, args...)
	code := run(args, &stdout, &stderr, overrides{scale: scale, tmpDir: t.TempDir(), broken: broken})
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, res, stdout.String()
}

func TestBrokenCheckFailsCommand(t *testing.T) {
	code, res, out := runSmall(t, 0.05, "", "--workload", "solve")
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("clean run: exit %d, %+v\n%s", code, res, out)
	}
	code, res, out = runSmall(t, 0.05, "residual", "--workload", "solve")
	if code == 0 || res.Correct || res.Failed == 0 || res.Attempted < res.Failed {
		t.Fatalf("broken residual check: exit %d, %+v\n%s", code, res, out)
	}
	if !strings.Contains(out, "failed_frac ") || !strings.Contains(out, "FAIL residual") {
		t.Errorf("the failure is not reported:\n%s", out)
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloadOrder {
		for _, trace := range []string{"0", "1"} {
			_, res, out := runSmall(t, 0.1, "", "--workload", w, "--trace", trace)
			if strings.Contains(out, "FAIL layer") || strings.Contains(out, "FAIL metric") {
				t.Errorf("%s trace=%s: a metric went unfed:\n%s", w, trace, out)
			}
			want := len(endToEnd)
			if trace == "1" {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), want)
			}
		}
	}
}
