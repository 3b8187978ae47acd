package main

// metricDef names one end-to-end metric and its unit. Every workload
// reports every end-to-end metric; README.md gives each workload's
// definition.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decompose_s", "s"},
	{"ops_per_s", "1/s"},
	{"volume_words", "words"},
	{"messages", "count"},
	{"alloc_mb", "MB"},
}

// layerDef names one per-layer metric, its unit and the workloads on
// which a traced run must produce it.
type layerDef struct {
	Name, Unit string
	On         []string
}

func (d layerDef) requiredOn(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onPipeline      = []string{"pipeline"}
	onSolve         = []string{"solve"}
	onServe         = []string{"serve"}
	onPipelineServe = []string{"pipeline", "serve"}
	onSolveServe    = []string{"solve", "serve"}
	onPipelineSolve = []string{"pipeline", "solve"}
)

var perLayer = []layerDef{
	{"mmio.read_s", "s", onPipelineServe},
	{"mmio.mb_per_s", "MB/s", onPipelineServe},

	{"core.build_s.finegrain", "s", onPipeline},
	{"core.build_s.hypergraph", "s", onPipeline},
	{"core.build_s.graph", "s", onPipeline},
	{"core.decode_s", "s", onPipeline},
	{"mediumgrain.build_s", "s", onPipeline},

	{"hgpart.coarsen_s.finegrain", "s", onPipelineServe},
	{"hgpart.initial_s.finegrain", "s", onPipelineServe},
	{"hgpart.refine_s.finegrain", "s", onPipelineServe},
	{"hgpart.coarsen_s.medium_grain", "s", onPipelineServe},
	{"hgpart.initial_s.medium_grain", "s", onPipelineServe},
	{"hgpart.refine_s.medium_grain", "s", onPipelineServe},
	{"hgpart.coarsen_s.hypergraph", "s", onPipeline},
	{"hgpart.initial_s.hypergraph", "s", onPipeline},
	{"hgpart.refine_s.hypergraph", "s", onPipeline},
	{"hgpart.fm_kept_frac.finegrain", "ratio", onPipeline},
	{"hgpart.fm_kept_frac.medium_grain", "ratio", onPipeline},
	{"hgpart.fm_kept_frac.hypergraph", "ratio", onPipeline},
	{"hgpart.serial_s", "s", onPipeline},

	{"gpart.coarsen_s", "s", onPipeline},
	{"gpart.initial_s", "s", onPipeline},
	{"gpart.refine_s", "s", onPipeline},

	{"comm.measure_s", "s", onPipeline},

	{"spmv.compile_s", "s", onSolveServe},
	{"spmv.exec_us", "us", onSolve},
	{"spmv.exec_us.w1", "us", onSolve},
	{"spmv.block8_us_per_rhs", "us", onSolve},
	{"spmv.expand_s", "s", onSolveServe},
	{"spmv.compute_s", "s", onSolveServe},
	{"spmv.fold_s", "s", onSolveServe},
	{"spmv.words", "words", onSolve},
	{"spmv.messages", "count", onSolve},

	{"solver.iters", "count", onSolve},
	{"solver.block_iters", "count", onSolve},
	{"solver.iter_self_us", "us", onSolve},
	{"solver.allreduce_words", "words", onSolve},

	{"kernel.compile_s", "s", onSolve},
	{"kernel.exec_us", "us", onSolve},
	{"kernel.exec_us.natural", "us", onSolve},
	{"kernel.exec_us.w1", "us", onSolve},
	{"kernel.gflops", "GFLOP/s", onSolve},
	{"kernel.gbps_computed", "GB/s", onSolve},

	{"reorder.decode_s", "s", onSolve},
	{"reorder.apply_s", "s", onSolve},

	{"partserver.queue_wait_ms.p50", "ms", onServe},
	{"partserver.run_ms.p50", "ms", onServe},
	{"partserver.hit_ms.p50", "ms", onServe},
	{"partserver.hit_frac", "ratio", onServe},
	{"partserver.session_open_ms.p50", "ms", onServe},
	{"partserver.throttled_frac", "ratio", onServe},

	{"store.save_ms.p50", "ms", onServe},

	// The partition server traces every job, so serve has no untraced
	// work to compare with.
	{"obs.overhead_frac", "ratio", onPipelineSolve},
}

// decomposeLayers maps the spans of one decomposition with model, rolled
// up in ru, to the decompose layers' metrics: model build, decode, volume
// measurement, partitioner phases and plan compile. add receives every
// metric a span fed, in seconds.
func decomposeLayers(ru rollup, model string, add func(metric string, v float64)) {
	build := "core.build_s." + model
	if model == "medium_grain" {
		build = "mediumgrain.build_s"
	}
	part, prefix, suffix := "hgpart", "hgpart.", "."+model
	if model == "graph" {
		part, prefix, suffix = "gpart", "gpart.", ""
	}
	for _, x := range []struct{ metric, cat, name string }{
		{build, "finegrain", "build.model"},
		{"core.decode_s", "finegrain", "decode"},
		{"comm.measure_s", "finegrain", "measure"},
		{prefix + "coarsen_s" + suffix, part, "coarsen"},
		{prefix + "initial_s" + suffix, part, "initial.bisect"},
		{prefix + "refine_s" + suffix, part, "refine"},
		{"spmv.compile_s", "spmv", "plan.compile"},
	} {
		if v, ok := ru.totalS(x.cat, x.name); ok {
			add(x.metric, v)
		}
	}
}
