package sweep

// Wall-time trajectory of the sweep engine over a representative grid
// (2 gates × 2 VDD points × 2 stimulus flavours, 2 seeds): the serial
// and pooled schedules of the same unit list, plus the warm-cache
// steady state where every golden transient is served from memory.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"hybriddelay/internal/eval"
)

func benchSpec() Spec {
	return testSpec(12)
}

func BenchmarkRunSweep(b *testing.B) {
	workers := map[string]int{"serial": 1, "pooled": runtime.GOMAXPROCS(0)}
	for _, name := range []string{"serial", "pooled"} {
		b.Run(name, func(b *testing.B) {
			spec := benchSpec()
			b.ResetTimer()
			start := time.Now()
			var units int
			for i := 0; i < b.N; i++ {
				rep, err := RunSweepContext(context.Background(), spec, &Options{Workers: workers[name]})
				if err != nil {
					b.Fatal(err)
				}
				units = rep.TotalUnits
			}
			perIter := time.Since(start).Seconds() / float64(b.N)
			b.StopTimer()
			b.ReportMetric(float64(units)/perIter, "units_per_s")
			b.ReportMetric(float64(workers[name]), "workers")
		})
	}
}

func BenchmarkRunSweepCached(b *testing.B) {
	spec := benchSpec()
	cache := eval.NewGoldenCache()
	if _, err := RunSweepContext(context.Background(), spec, &Options{Cache: cache}); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := RunSweepContext(context.Background(), spec, &Options{Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
	perIter := time.Since(start).Seconds() / float64(b.N)
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
	b.ReportMetric(perIter*1e3, "ms_per_sweep")
}
