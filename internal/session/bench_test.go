package session

// Wall-time trajectory of sweep jobs over a representative grid (2
// gates × 2 VDD points × 2 stimulus flavours, 2 seeds): the serial and
// pooled schedules of the same unit list on a cold session, plus the
// warm-cache steady state where every golden transient is served from
// memory.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

func benchSweepJob() SweepJob {
	p := fastParams()
	return SweepJob{Spec: sweep.Spec{
		Gates:    []string{"nor2", "nand2"},
		VDDScale: []float64{1, 0.92},
		Stimuli: []sweep.Stimulus{
			{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: 12},
			{Mode: gen.Global, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: 12},
		},
		Seeds: []int64{1, 2},
		Bench: &p,
	}}
}

func BenchmarkRunSweep(b *testing.B) {
	workers := map[string]int{"serial": 1, "pooled": runtime.GOMAXPROCS(0)}
	for _, name := range []string{"serial", "pooled"} {
		b.Run(name, func(b *testing.B) {
			job := benchSweepJob()
			b.ResetTimer()
			start := time.Now()
			var units int
			for i := 0; i < b.N; i++ {
				res, err := New(Options{Workers: workers[name]}).Evaluate(context.Background(), job)
				if err != nil {
					b.Fatal(err)
				}
				units = res.Sweep.TotalUnits
			}
			perIter := time.Since(start).Seconds() / float64(b.N)
			b.StopTimer()
			b.ReportMetric(float64(units)/perIter, "units_per_s")
			b.ReportMetric(float64(workers[name]), "workers")
		})
	}
}

func BenchmarkRunSweepCached(b *testing.B) {
	job := benchSweepJob()
	s := New(Options{})
	if _, err := s.Evaluate(context.Background(), job); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(context.Background(), job); err != nil {
			b.Fatal(err)
		}
	}
	perIter := time.Since(start).Seconds() / float64(b.N)
	b.StopTimer()
	st := s.GoldenCache().Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
	b.ReportMetric(perIter*1e3, "ms_per_sweep")
}
