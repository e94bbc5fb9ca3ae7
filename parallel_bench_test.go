package hybriddelay

// Serial-vs-parallel wall time of the Fig. 7 accuracy pipeline (the
// repo's hottest path), all through Session gate jobs.
// BenchmarkEvaluateParallel reports speedup_x, the ratio of the
// 1-worker session's wall time to the 4-worker session's per-iteration
// time on the same configs and seeds, so the speedup trajectory is
// tracked across PRs; the Cached variant measures the steady state of a
// warm golden-trace cache (golden transients skipped entirely).
// speedup_x scales with the core count — on a single-core machine it
// sits near 1.

import (
	"context"
	"sync"
	"testing"
	"time"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
)

const parallelBenchWorkers = 4

// fig7ParallelConfigs returns the paper configurations at the same
// reduced size BenchmarkFig7Accuracy uses, and the seeds.
func fig7ParallelConfigs(inputs int) ([]gen.Config, []int64) {
	configs := gen.PaperConfigs()
	for i := range configs {
		configs[i].Inputs = inputs
		configs[i].Transitions /= 4 // keep a single iteration in the ~1 s range
	}
	return configs, []int64{1, 2, 3, 4}
}

// serialBaseline measures one 1-worker pass over all configs once per
// process, for the speedup metrics.
var serialBaselineState struct {
	once sync.Once
	secs float64
}

func serialBaseline(b *testing.B) float64 {
	configs, seeds := fig7ParallelConfigs(2)
	serialBaselineState.once.Do(func() {
		s := evalSession(b, 1)
		start := time.Now()
		evalNOR2(b, s, configs, seeds, true)
		serialBaselineState.secs = time.Since(start).Seconds()
	})
	return serialBaselineState.secs
}

// BenchmarkEvaluateSerial is the reference: the Fig. 7 configs on a
// 1-worker session.
func BenchmarkEvaluateSerial(b *testing.B) {
	configs, seeds := fig7ParallelConfigs(2)
	s := evalSession(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalNOR2(b, s, configs, seeds, true)
	}
}

// BenchmarkEvaluateParallel runs the same work on a 4-worker session
// (no golden memoization: every golden transient is re-simulated, so
// speedup comes purely from the worker pool).
func BenchmarkEvaluateParallel(b *testing.B) {
	configs, seeds := fig7ParallelConfigs(2)
	serial := serialBaseline(b)
	s := evalSession(b, parallelBenchWorkers)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evalNOR2(b, s, configs, seeds, true)
	}
	perIter := time.Since(start).Seconds() / float64(b.N)
	b.StopTimer()
	b.ReportMetric(serial/perIter, "speedup_x")
	b.ReportMetric(parallelBenchWorkers, "workers")
}

// BenchmarkEvalParallel tracks the generic registry-driven pipeline with
// a per-gate dimension, so the perf trajectory of the hot path is
// recorded for every gate the evaluation supports, not just the default.
func BenchmarkEvalParallel(b *testing.B) {
	for _, name := range []string{"nor2", "nand2"} {
		b.Run(name, func(b *testing.B) {
			g, err := gate.Find(name)
			if err != nil {
				b.Fatal(err)
			}
			p := nor.DefaultParams()
			p.MaxStep = 8e-12
			s := NewSession(SessionOptions{Workers: parallelBenchWorkers})
			if _, err := s.ParamCache().OperatingPoint(context.Background(), g, p, DefaultSessionExpDMin); err != nil {
				b.Fatal(err)
			}
			configs, seeds := fig7ParallelConfigs(g.Arity())
			job := GateJob{Gate: name, Params: &p, Configs: configs, Seeds: seeds, NoCache: true}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := s.Evaluate(context.Background(), job); err != nil {
					b.Fatal(err)
				}
			}
			perIter := time.Since(start).Seconds() / float64(b.N)
			b.StopTimer()
			b.ReportMetric(float64(len(configs)*len(seeds))/perIter, "units_per_s")
			b.ReportMetric(parallelBenchWorkers, "workers")
		})
	}
}

// BenchmarkEvaluateParallelCached measures the warm-cache steady state:
// the golden traces are memoized in the session's cache, so each
// iteration only reruns the digital models and the merge.
func BenchmarkEvaluateParallelCached(b *testing.B) {
	configs, seeds := fig7ParallelConfigs(2)
	serial := serialBaseline(b)
	s := evalSession(b, parallelBenchWorkers)
	evalNOR2(b, s, configs, seeds, false) // warm the cache
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evalNOR2(b, s, configs, seeds, false)
	}
	perIter := time.Since(start).Seconds() / float64(b.N)
	b.StopTimer()
	b.ReportMetric(serial/perIter, "speedup_x")
	st := s.GoldenCache().Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
}
