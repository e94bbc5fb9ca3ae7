package hybriddelay

// Cold-vs-warm Session cost of a repeated-operating-point workload.
// Every evaluation pays a fixed per-call preparation cost — bench
// construction, characteristic measurement, model fitting — before its
// first unit; the Session's parametrization cache pays it once per
// operating point and serves every later job from memory.
// BenchmarkSessionWarm evaluates on one long-lived Session (preparation
// served from cache) and reports speedup_x against the cold baseline
// (a fresh Session per call, re-measuring every time), alongside
// cold_ms and warm_ms. Both paths memoize no golden traces, so the
// speedup isolates the parametrization memoization.
// BenchmarkSessionWarmStore adds the cross-process case: a fresh
// Session per call over a filled persistent store.

import (
	"context"
	"sync"
	"testing"
	"time"

	"hybriddelay/internal/gen"
)

// sessionBenchJob returns the repeated-operating-point workload: the
// default gate at the calibrated operating point, two small
// configurations over two seeds. NoCache keeps golden-transient
// memoization out of the measurement.
func sessionBenchJob() GateJob {
	mk := func(mode gen.Mode, mu, sigma float64) TraceConfig {
		return TraceConfig{Mu: mu, Sigma: sigma, Mode: mode, Inputs: 2,
			Transitions: 12, Start: 200e-12}
	}
	return GateJob{
		Gate:    "nor2",
		Configs: []TraceConfig{mk(gen.Local, 200e-12, 100e-12), mk(gen.Global, 500e-12, 250e-12)},
		Seeds:   []int64{1, 2},
		NoCache: true,
	}
}

// evaluateSessionJob runs the workload once on the given session.
func evaluateSessionJob(b *testing.B, s *Session) {
	b.Helper()
	job := sessionBenchJob()
	if _, err := s.Evaluate(context.Background(), job); err != nil {
		b.Fatal(err)
	}
}

// coldSessionBaseline measures one cold call (fresh Session, full
// preparation) once per process.
var coldSessionBaseline struct {
	once sync.Once
	secs float64
}

func coldSessionSecs(b *testing.B) float64 {
	b.Helper()
	coldSessionBaseline.once.Do(func() {
		start := time.Now()
		evaluateSessionJob(b, NewSession(SessionOptions{Workers: 2}))
		coldSessionBaseline.secs = time.Since(start).Seconds()
	})
	return coldSessionBaseline.secs
}

// BenchmarkSessionCold pays the full preparation chain every iteration
// — the pre-Session per-call fixed cost.
func BenchmarkSessionCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evaluateSessionJob(b, NewSession(SessionOptions{Workers: 2}))
	}
}

// BenchmarkSessionWarm serves the preparation from the long-lived
// Session's parametrization cache and reports the cold/warm speedup.
func BenchmarkSessionWarm(b *testing.B) {
	cold := coldSessionSecs(b)
	s := NewSession(SessionOptions{Workers: 2})
	evaluateSessionJob(b, s) // warm the parametrization cache
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		evaluateSessionJob(b, s)
	}
	warm := time.Since(start).Seconds() / float64(b.N)
	b.ReportMetric(cold*1e3, "cold_ms")
	b.ReportMetric(warm*1e3, "warm_ms")
	if warm > 0 {
		b.ReportMetric(cold/warm, "speedup_x")
	}
	if st := s.ParamCache().Stats(); st.Misses != 1 {
		b.Fatalf("warm session re-prepared: param stats %+v", st)
	}
}

// BenchmarkSessionWarmStore is the cross-process warm start: a first
// run fills a persistent store, then every iteration is a fresh store
// handle and a fresh Session over it, as back-to-back CLI runs with
// -store are. Golden traces and the prepared operating point both come
// from disk, so an iteration runs no transient and no fit; warm_ms and
// speedup_x compare it with the cold baseline.
func BenchmarkSessionWarmStore(b *testing.B) {
	cold := coldSessionSecs(b)
	dir := b.TempDir()
	run := func() *Result {
		st, err := OpenGoldenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		s := NewSession(SessionOptions{Workers: 2, Store: st})
		job := sessionBenchJob()
		job.NoCache = false // the session cache fronts the store
		res, err := s.Evaluate(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return res
	}
	run() // fill the store
	b.ResetTimer()
	start := time.Now()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = run()
	}
	warm := time.Since(start).Seconds() / float64(b.N)
	b.ReportMetric(cold*1e3, "cold_ms")
	b.ReportMetric(warm*1e3, "warm_ms")
	if warm > 0 {
		b.ReportMetric(cold/warm, "speedup_x")
	}
	if st := res.Stats; st.Solver.Steps != 0 || st.Params.DiskHits != 1 {
		b.Fatalf("warm-store run solved or fitted: %d steps, param stats %+v", st.Solver.Steps, st.Params)
	}
}
