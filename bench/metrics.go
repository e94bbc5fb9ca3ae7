package main

// metricDef is one metric the benchmark reports; BENCHMARK.json lists
// the same names and units (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced runs:
//
//   - setup_s: median of the workload's set-ups (process start for the
//     cold workloads, the store fill for fig7-warm, server start plus
//     cache warm-up for serve-mixed);
//   - latency_p50_ms: median time of one user operation (a cold run, a
//     warm re-run, or one served job from submit to its ended_at with
//     the server kept busy);
//   - latency_tail_ms: p75 of the operations of the batch workloads, p90
//     of the served jobs;
//   - throughput: evaluation units (config × seed) per second of the
//     median operation for the batch workloads; jobs the busy server
//     finishes per second for serve-mixed;
//   - peak_rss_mb: peak resident memory of the measured process.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named after the repo's
// modules. Times are self times (span minus its children); every value
// is per job. Layers a workload does not reach read 0.
var perLayer = []metricDef{
	{"spice.solve_s", "s", "lower"},
	{"spice.solves", "count", "lower"},
	{"spice.steps", "count", "lower"},
	{"spice.rejected", "count", "lower"},
	{"spice.iterations", "count", "lower"},
	{"spice.factorizations", "count", "lower"},
	{"spice.ns_per_iter", "ns", "lower"},
	{"sparse.factorizations", "count", "lower"},
	{"sparse.fallbacks", "count", "lower"},
	{"sparse.linear_reuses", "count", "higher"},
	{"sparse.symbolic_hits", "count", "higher"},
	{"sparse.symbolic_misses", "count", "lower"},
	{"sparse.supernodes", "count", "higher"},
	{"model.inertial_s", "s", "lower"},
	{"model.exp_s", "s", "lower"},
	{"model.hm_s", "s", "lower"},
	{"model.hm_nodmin_s", "s", "lower"},
	{"param.hits", "count", "higher"},
	{"param.misses", "count", "lower"},
	{"prep.bench_s", "s", "lower"},
	{"prep.measure_s", "s", "lower"},
	{"prep.fit_s", "s", "lower"},
	{"golden.lookups", "count", "lower"},
	{"golden.hits", "count", "higher"},
	{"golden.misses", "count", "lower"},
	{"golden.disk_hits", "count", "higher"},
	{"golden.hit_ratio", "ratio", "higher"},
	{"golden.s", "s", "lower"},
	{"golden.events", "count", "lower"},
	{"store.loads", "count", "lower"},
	{"store.load_s", "s", "lower"},
	{"store.saves", "count", "lower"},
	{"store.save_s", "s", "lower"},
	{"store.flush_s", "s", "lower"},
	{"gen.s", "s", "lower"},
	{"score.s", "s", "lower"},
	{"merge.s", "s", "lower"},
	{"pool.busy_ratio", "ratio", "higher"},
	{"session.self_s", "s", "lower"},
	{"serve.submit_ms.p50", "ms", "lower"},
	{"serve.queue_ms.p90", "ms", "lower"},
	{"serve.exec_ms.p50", "ms", "lower"},
	{"serve.exec_ms.p90", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"loadgen.lag_ms.p90", "ms", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.unit_coverage", "ratio", "higher"},
}

// zeroLayers returns every per-layer metric at 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
