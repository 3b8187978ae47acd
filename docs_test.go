package finegrain_test

import (
	"os"
	"regexp"
	"testing"

	finegrain "finegrain"
)

// TestDocsModelNames is the doc-drift guard for the model registry:
// the documents that enumerate decomposition models must name every
// registered model. Adding a model to the registry without updating
// the docs (or documenting a model that no longer exists in
// EXPERIMENTS.md's backticked list) fails this test.
func TestDocsModelNames(t *testing.T) {
	// Canonical names only: aliases ("2d", "1d") are also in
	// ModelNames, but docs need not spell every alias.
	var names []string
	for _, m := range finegrain.Models() {
		names = append(names, m.Name)
	}
	if len(names) == 0 {
		t.Fatal("empty model registry")
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "OBSERVABILITY.md", "MODELS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(b) {
				t.Errorf("%s does not mention registered model %q", doc, name)
			}
		}
	}

	// EXPERIMENTS.md's preamble lists the models as backticked names;
	// that list must not drift ahead of the registry either.
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range finegrain.Models() {
		registered[m.Name] = true
		for _, a := range m.Aliases {
			registered[a] = true
		}
	}
	for _, m := range regexp.MustCompile("`([a-z0-9_]+)` \\(alias").FindAllSubmatch(b, -1) {
		if !registered[string(m[1])] {
			t.Errorf("EXPERIMENTS.md lists model %q, which is not in the registry", m[1])
		}
	}
}

// docSurface is one document and the names it must mention.
type docSurface struct {
	doc   string
	wants []string
}

// checkDocSurface fails t for every name a document does not mention;
// surface labels the subsystem in the error.
func checkDocSurface(t *testing.T, surface string, cases []docSurface) {
	t.Helper()
	for _, c := range cases {
		b, err := os.ReadFile(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.wants {
			if !regexp.MustCompile(regexp.QuoteMeta(w)).Match(b) {
				t.Errorf("%s does not mention %q (%s surface drift)", c.doc, w, surface)
			}
		}
	}
}

// TestDocsModelSurface pins the documented surface of the model
// family added with the medium-grain/SpGEMM/auto work: the
// model-selection guide must cover every registry name AND alias, and
// the new flags, experiment modes, spans, log records and benchmark
// artifacts must stay documented where users are told to look.
func TestDocsModelSurface(t *testing.T) {
	// MODELS.md is the selection guide: unlike the other docs it must
	// name every alias too, since choosing between spellings is its job.
	b, err := os.ReadFile("MODELS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range finegrain.Models() {
		for _, name := range append([]string{m.Name}, m.Aliases...) {
			if !regexp.MustCompile("`" + regexp.QuoteMeta(name) + "`").Match(b) {
				t.Errorf("MODELS.md does not mention model name/alias %q", name)
			}
		}
	}

	checkDocSurface(t, "model", []docSurface{
		{"README.md", []string{
			"-spgemm", "-spgemmbench", "-compare",
			"MODELS.md", "requested_model",
			"BENCH_spgemm.json", "bench-spgemm",
			"DecomposeSpGEMM",
		}},
		{"MODELS.md", []string{
			"SelectModel", "auto.select", "requested_model",
			"DecomposeSpGEMM", "BENCH_spgemm.json", "-spgemm",
		}},
		{"EXPERIMENTS.md", []string{
			"-compare", "-spgemmbench",
			"BENCH_spgemm.json", "bench-spgemm", "MODELS.md",
		}},
		{"OBSERVABILITY.md", []string{
			"auto.select", "requested_model", "auto model selected",
		}},
		{"DESIGN.md", []string{
			"internal/mediumgrain", "internal/spgemm",
			"DecomposeAuto", "SelectModel", "Sparse-SUMMA",
			"-spgemmbench",
		}},
		{"Makefile", []string{
			"bench-spgemm", "bench-spgemm-smoke",
		}},
	})
}

// TestDocsBlockSurface pins the documented surface of the block
// multi-RHS + session subsystem: the CLI flags, the session endpoints,
// the benchmark artifact and target must stay documented where users
// are told to look for them.
func TestDocsBlockSurface(t *testing.T) {
	checkDocSurface(t, "block", []docSurface{
		{"README.md", []string{
			"-solve", "-session-ttl", "-session-max",
			"NewSession", "MultiplyBlock", "BlockCounters",
			"/v1/jobs/{id}/sessions", "application/x-ndjson",
			"BENCH_block.json", "bench-block",
		}},
		{"EXPERIMENTS.md", []string{
			"BENCH_block.json", "bench-block",
		}},
		{"OBSERVABILITY.md", []string{
			"exec.block", "cg.block", "session.open",
		}},
		{"DESIGN.md", []string{
			"ExecBlock", "solver.BlockCG", "Session",
			"BENCH_block.json", "FINEGRAIN_BLOCK_FLOOR",
		}},
		{"Makefile", []string{
			"bench-block", "bench-block-smoke",
			"FINEGRAIN_BLOCK_FLOOR", "FINEGRAIN_BLOCK_SMOKE",
		}},
	})
}

// TestDocsLocalitySurface pins the documented surface of the locality
// subsystem: the CLI flags, the benchmark artifact and target, and the
// kernel/reorder trace spans must all stay documented where users are
// told to look for them. Renaming a flag, span or artifact without
// updating the docs fails here.
func TestDocsLocalitySurface(t *testing.T) {
	checkDocSurface(t, "locality", []docSurface{
		{"README.md", []string{
			"-reorder", "-measure", "-localitybench",
			"BENCH_locality.json", "bench-locality",
			"CompileLocal", "MultiplyLocal", "Reorder",
		}},
		{"EXPERIMENTS.md", []string{
			"BENCH_locality.json", "bench-locality",
		}},
		{"OBSERVABILITY.md", []string{
			"reorder", "decode", "kernel", "compile", "exec", "cg",
		}},
		{"DESIGN.md", []string{
			"internal/reorder", "internal/kernel",
			"BENCH_locality.json", "FINEGRAIN_LOCALITY_FLOOR",
		}},
		{"Makefile", []string{
			"bench-locality", "bench-locality-smoke",
			"FINEGRAIN_LOCALITY_FLOOR", "FINEGRAIN_LOCALITY_SMOKE",
		}},
	})
}
