package eval

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// stampSource is a synthetic GoldenSource returning a trace whose single
// event time encodes the source's identity, so cache aliasing between
// sources is detectable in the returned data.
type stampSource struct {
	stamp float64
	calls int
}

func (s *stampSource) Golden(GoldenRequest) (trace.Trace, error) {
	s.calls++
	return trace.New(true, []trace.Event{{Time: s.stamp, Value: false}}), nil
}

// TestGoldenCacheKeyIncludesGate: a NOR2 and a NAND2 golden run of the
// same (bench parameters, config, seed) must never collide in a shared
// cache — the regression that motivated adding the gate name to
// GoldenKey (all benches are built from the same nor.Params type, so
// parameters alone cannot distinguish the topologies).
func TestGoldenCacheKeyIncludesGate(t *testing.T) {
	cache := NewGoldenCache()
	params := nor.DefaultParams()
	cfg := testConfig(8)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := GoldenRequest{Config: cfg, Seed: 1, Inputs: inputs, Until: 1e-9}

	norSrc := &stampSource{stamp: 1e-9}
	nandSrc := &stampSource{stamp: 2e-9}
	norCached := CachedSource{Gate: "nor2", Bench: params, Cache: cache, Src: norSrc}
	nandCached := CachedSource{Gate: "nand2", Bench: params, Cache: cache, Src: nandSrc}

	norOut, err := norCached.Golden(req)
	if err != nil {
		t.Fatal(err)
	}
	nandOut, err := nandCached.Golden(req)
	if err != nil {
		t.Fatal(err)
	}
	if norSrc.calls != 1 || nandSrc.calls != 1 {
		t.Fatalf("computed %d/%d times, want 1/1 (gate missing from the key aliases the second gate onto the first)",
			norSrc.calls, nandSrc.calls)
	}
	if norOut.Events[0].Time == nandOut.Events[0].Time {
		t.Fatalf("NOR2 and NAND2 traces collided for the same (config, seed): both %g", norOut.Events[0].Time)
	}
	// Warm lookups keep serving the right gate.
	norOut2, err := norCached.Golden(req)
	if err != nil {
		t.Fatal(err)
	}
	nandOut2, err := nandCached.Golden(req)
	if err != nil {
		t.Fatal(err)
	}
	if norOut2.Events[0].Time != 1e-9 || nandOut2.Events[0].Time != 2e-9 {
		t.Errorf("warm lookups crossed gates: nor=%g nand=%g", norOut2.Events[0].Time, nandOut2.Events[0].Time)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("stats %+v, want 2 entries / 2 misses / 2 hits", cache.Stats())
	}
}

// TestGateRunnerDeterministicAcrossWorkers: the runner's merged areas
// are independent of the worker count on a synthetic golden source
// (scheduling only; the analog path is covered by the cross-gate tests).
func TestGateRunnerDeterministicAcrossWorkers(t *testing.T) {
	m := cheapModels(t)
	cfg := testConfig(12)
	seeds := []int64{1, 2, 3, 4}
	src := &countingSource{}
	base, err := runGate(src, m, cfg, seeds, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		res, err := runGate(src, m, cfg, seeds, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range base.Area {
			if res.Area[name] != v {
				t.Errorf("workers=%d: Area[%s] = %g, want %g", workers, name, res.Area[name], v)
			}
		}
	}
}

// TestEvaluateSeedRejectsNilGate: a Models literal missing the Gate
// field errors descriptively instead of panicking.
func TestEvaluateSeedRejectsNilGate(t *testing.T) {
	m := cheapModels(t)
	m.Gate = nil
	if _, err := EvaluateSeedContext(context.Background(), &countingSource{}, m, testConfig(4), 1); err == nil {
		t.Fatal("nil Models.Gate accepted")
	}
}

// keyStampSource returns, for every request, a trace whose single event
// encodes the full identity of the key the request should be filed
// under. Any cache that ever returns a trace for the wrong (gate,
// bench-params, config, seed) key is caught by re-deriving the stamp.
type keyStampSource struct {
	gate  string
	bench nor.Params
}

// stampFor derives a value unique to the (gate, bench, config, seed)
// combination used by the mixed-scenario property test.
func stampFor(gateName string, bench nor.Params, cfg gen.Config, seed int64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%g|%g|%s|%d|%d", gateName, bench.Supply.VDD, bench.CO, cfg.Name(), cfg.Transitions, seed)
	return float64(h.Sum64()%1_000_003) * 1e-15
}

func (s keyStampSource) Golden(req GoldenRequest) (trace.Trace, error) {
	return trace.New(true, []trace.Event{{Time: stampFor(s.gate, s.bench, req.Config, req.Seed), Value: false}}), nil
}

// TestGoldenCacheConcurrentMixedScenarios is the sweep-engine property
// test: one cache shared by many concurrent "scenarios" (every
// combination of gate, bench parametrization, config and seed, as a
// grid sweep produces) must never serve a trace computed for a
// different key, and its hit/miss accounting must add up. Run under
// -race in CI.
func TestGoldenCacheConcurrentMixedScenarios(t *testing.T) {
	gates := []string{"nor2", "nand2", "nor3"}
	benches := []nor.Params{nor.DefaultParams(), nor.DefaultParams()}
	benches[1].CO *= 2 // second operating point: same type, scaled load
	configs := []gen.Config{testConfig(4), testConfig(8)}
	seeds := []int64{1, 2, 3}

	cache := NewGoldenCache()
	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(gates)*len(benches))
	var hits, misses atomic.Int64
	for r := 0; r < rounds; r++ {
		for _, gateName := range gates {
			for bi := range benches {
				wg.Add(1)
				go func(gateName string, bench nor.Params) {
					defer wg.Done()
					src := CachedSource{Gate: gateName, Bench: bench, Cache: cache,
						Src: keyStampSource{gate: gateName, bench: bench}}
					for _, cfg := range configs {
						for _, seed := range seeds {
							key := GoldenKey{Gate: gateName, Bench: bench, Config: cfg, Seed: seed}
							out, hit, err := cache.GetOrCompute(key, func() (trace.Trace, error) {
								return keyStampSource{gate: gateName, bench: bench}.Golden(GoldenRequest{Config: cfg, Seed: seed})
							})
							if err != nil {
								errCh <- err
								return
							}
							if hit {
								hits.Add(1)
							} else {
								misses.Add(1)
							}
							if want := stampFor(gateName, bench, cfg, seed); out.Events[0].Time != want {
								errCh <- fmt.Errorf("key %+v served stamp %g, want %g — wrong scenario's trace",
									key, out.Events[0].Time, want)
								return
							}
							// The CachedSource path derives the same key.
							out2, err := src.Golden(GoldenRequest{Config: cfg, Seed: seed})
							if err != nil {
								errCh <- err
								return
							}
							if out2.Events[0].Time != out.Events[0].Time {
								errCh <- fmt.Errorf("CachedSource and direct lookup disagree for %+v", key)
								return
							}
						}
					}
				}(gateName, benches[bi])
			}
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	distinct := len(gates) * len(benches) * len(configs) * len(seeds)
	st := cache.Stats()
	if st.Entries != distinct {
		t.Errorf("cache holds %d entries, want %d (one per distinct key)", st.Entries, distinct)
	}
	if st.Misses != int64(distinct) {
		t.Errorf("cache computed %d times, want exactly once per key (%d)", st.Misses, distinct)
	}
	if hits.Load()+misses.Load() != int64(rounds*len(gates)*len(benches)*len(configs)*len(seeds)) {
		t.Errorf("tracked hits (%d) + misses (%d) do not cover every lookup", hits.Load(), misses.Load())
	}
	if misses.Load() != int64(distinct) {
		t.Errorf("tracked misses = %d, want %d", misses.Load(), distinct)
	}
}
