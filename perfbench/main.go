// Command perfbench is the repository's end-to-end benchmark: Matrix
// Market bytes to a ready session (pipeline), warm CG solves (solve) and
// partition-server traffic (serve), with a traced per-layer split.
//
//	go run . --workload pipeline --seed 1 --seconds 30 --trace 0
//
// Every input is generated from --seed and serialized to an in-memory
// .mtx.gz before any clock starts. Human-readable report lines come
// first; the last line of standard output is one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Any failed operation or correctness check fails the command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	overrides
}

// overrides are the settings only tests change.
type overrides struct {
	// scale multiplies every matrix size; 0 means 1, the sizes the
	// workloads define.
	scale float64
	// tmpDir holds the partition server's store directories; "" means
	// .bench_build/tmp.
	tmpDir string
	// broken names a check whose outcome is inverted.
	broken string
}

type workloadFunc func(cfg config, ck *checker) (*outcome, error)

var workloads = map[string]workloadFunc{
	"pipeline": runPipeline,
	"solve":    runSolve,
	"serve":    runServe,
}

var workloadOrder = []string{"pipeline", "solve", "serve"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, overrides{})) }

// run executes the command and returns its exit code.
func run(args []string, stdout, stderr io.Writer, ov overrides) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long the timed section runs")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.overrides = ov
	if cfg.scale == 0 {
		cfg.scale = 1
	}
	if cfg.tmpDir == "" {
		cfg.tmpDir = filepath.Join(".bench_build", "tmp")
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadOrder
	} else if workloads[cfg.workload] == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "need --seconds > 0 and --trace 0 or 1")
		return 2
	}

	ck := newChecker(stdout, cfg.broken)
	metrics := map[string]metricOut{}
	for _, name := range names {
		c := cfg
		c.workload = name
		printStamp(stdout, c)
		out, err := workloads[name](c, ck)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		ms := out.metrics(c, ck)
		out.print(stdout, c, ms)
		for k, v := range ms {
			if len(names) > 1 {
				k = name + "." + k
			}
			metrics[k] = v
		}
	}
	attempted, failed := ck.counts()
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{failed == 0, attempted, failed, metrics}
	fmt.Fprintf(stdout, "failed_frac %.6g ratio (%d of %d operations and checks failed)\n",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 || attempted == 0 {
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured.
type outcome struct {
	inputs []input
	// e2e holds the gated end-to-end metrics of the untraced run.
	e2e map[string]float64
	// layers holds the per-layer metrics of the traced run.
	layers map[string]float64
	// report holds the workload's own named metrics, printed but not
	// gated.
	report []reportLine
	notes  []string
}

type reportLine struct {
	name, unit, what string
	value            float64
}

func newOutcome(ins []input) *outcome { return &outcome{inputs: ins} }

func (o *outcome) named(name string, v float64, unit, what string) {
	o.report = append(o.report, reportLine{name, unit, what, v})
}

// tails reports the median and tail of a latency sample set.
func (o *outcome) tails(name string, xs []float64, what string) {
	if len(xs) == 0 {
		o.note("%s: no samples", name)
		return
	}
	o.named(name+".p50", median(xs), "ms", fmt.Sprintf("%s; n=%d", what, len(xs)))
	if t, ok := tailOf(xs); ok {
		o.named(name+".tail", t.Value, "ms", fmt.Sprintf("p%.4g of n=%d", t.Pct, t.N))
	} else {
		o.note("%s.tail: none (n=%d, fewer than %d samples)", name, len(xs), minBeyond+1)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metrics selects the JSON metrics: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one. A metric the
// workload must produce but did not (no span fed it, or a zero or
// non-finite end-to-end value) fails a check; per-layer metrics of
// layers the workload does not exercise read 0.
func (o *outcome) metrics(cfg config, ck *checker) map[string]metricOut {
	ms := map[string]metricOut{}
	if !cfg.trace {
		for _, d := range endToEnd {
			v, ok := o.e2e[d.Name]
			ck.check("metric "+d.Name, ok && v > 0 && !math.IsInf(v, 0), "%s: end-to-end metric is %v (present %v)", cfg.workload, v, ok)
			ms[d.Name] = metricOut{v, d.Unit}
		}
		return ms
	}
	for _, d := range perLayer {
		v, ok := o.layers[d.Name]
		if d.requiredOn(cfg.workload) {
			ck.check("layer "+d.Name, ok && !math.IsNaN(v) && !math.IsInf(v, 0),
				"%s: per-layer metric has no span feeding it", cfg.workload)
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[d.Name] = metricOut{v, d.Unit}
	}
	return ms
}

func (o *outcome) print(w io.Writer, cfg config, ms map[string]metricOut) {
	printInputs(w, o.inputs)
	for _, n := range o.notes {
		fmt.Fprintf(w, "%s: %s\n", cfg.workload, n)
	}
	for _, r := range o.report {
		fmt.Fprintf(w, "%s %s %.6g %s (%s)\n", cfg.workload, r.name, r.value, r.unit, r.what)
	}
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer"
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		mark := ""
		if cfg.trace {
			if _, ok := o.layers[k]; !ok {
				mark = " (layer not exercised)"
			}
		}
		fmt.Fprintf(w, "%s %s %s %.6g %s%s\n", cfg.workload, kind, k, ms[k].Value, ms[k].Unit, mark)
	}
}
