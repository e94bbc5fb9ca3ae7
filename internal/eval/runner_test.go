package eval

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// cheapModels builds a model set without touching the analog bench
// (Table I parameters instead of a fitted characteristic), for runner
// tests that exercise scheduling rather than accuracy.
func cheapModels(t *testing.T) Models {
	t.Helper()
	hm := hybrid.TableI()
	hm0 := hm
	hm0.DMin = 0
	arcs, err := inertial.NORArcsFromSIS(40e-12, 38e-12, 53e-12, 56e-12)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := idm.ExpFromSIS(54.5e-12, 39e-12, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	return Models{
		Gate:     gate.NOR2,
		Inertial: arcs.Arcs(),
		Exp:      exp,
		HM:       gate.NOR2Model{P: hm},
		HMNoDMin: gate.NOR2Model{P: hm0},
		Supply:   hm.Supply,
	}
}

// countingSource is a synthetic GoldenSource recording how often it
// computes; failSeed (when non-zero) errors on that seed's first call.
type countingSource struct {
	mu       sync.Mutex
	calls    int
	failSeed int64
	failed   bool
}

func (s *countingSource) Golden(req GoldenRequest) (trace.Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if req.Seed == s.failSeed && !s.failed {
		s.failed = true
		return trace.Trace{}, fmt.Errorf("synthetic golden failure")
	}
	// A fixed plausible NOR output: starts high, one falling edge.
	return trace.New(true, []trace.Event{{Time: 1e-9, Value: false}}), nil
}

func (s *countingSource) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// serialRun is the serial reference every fan-out must reproduce: each
// seed evaluated in order on the caller's goroutine, then merged.
func serialRun(src GoldenSource, m Models, cfg gen.Config, seeds []int64) (RunResult, error) {
	parts := make([]SeedResult, 0, len(seeds))
	for _, seed := range seeds {
		part, err := EvaluateSeedContext(context.Background(), src, m, cfg, seed)
		if err != nil {
			return RunResult{}, err
		}
		parts = append(parts, part)
	}
	return MergeSeedResults(cfg, parts), nil
}

// runGate evaluates one configuration through Run.
func runGate(src GoldenSource, m Models, cfg gen.Config, seeds []int64, opt *Options) (RunResult, error) {
	parts, _, err := Run(context.Background(), []Block{{Config: cfg, Golden: src, Models: m}}, seeds, opt)
	if err != nil {
		return RunResult{}, err
	}
	return MergeSeedResults(cfg, parts), nil
}

func testConfig(transitions int) gen.Config {
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = transitions
	return cfg
}

func TestGoldenCacheHitMiss(t *testing.T) {
	inner := &countingSource{}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: nor.DefaultParams(), Cache: cache, Src: inner}
	cfg := testConfig(4)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := GoldenRequest{Config: cfg, Seed: 1, Inputs: inputs, Until: 1e-9}

	if _, err := src.Golden(req); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Golden(req); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 1 {
		t.Errorf("identical requests computed %d times, want 1", inner.count())
	}
	req2 := req
	req2.Seed = 2
	if _, err := src.Golden(req2); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 2 {
		t.Errorf("distinct seed did not compute (calls=%d)", inner.count())
	}
	// A different bench parametrization must not alias the same seed.
	otherBench := nor.DefaultParams()
	otherBench.CO *= 2
	src2 := CachedSource{Gate: "nor2", Bench: otherBench, Cache: cache, Src: inner}
	if _, err := src2.Golden(req); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 3 {
		t.Errorf("distinct bench params did not compute (calls=%d)", inner.count())
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("stats %+v, want 1 hit / 3 misses / 3 entries", st)
	}
}

func TestGoldenCacheDoesNotCacheErrors(t *testing.T) {
	inner := &countingSource{failSeed: 7}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: nor.DefaultParams(), Cache: cache, Src: inner}
	req := GoldenRequest{Config: testConfig(4), Seed: 7}
	if _, err := src.Golden(req); err == nil {
		t.Fatal("first call should fail")
	}
	if _, err := src.Golden(req); err != nil {
		t.Fatalf("retry after failure should recompute and succeed: %v", err)
	}
	if inner.count() != 2 {
		t.Errorf("error was cached (calls=%d, want 2)", inner.count())
	}
}

func TestRunnerEarlyErrorAndProgress(t *testing.T) {
	m := cheapModels(t)
	src := &countingSource{failSeed: 3}
	var events []Progress
	opt := &Options{Workers: 4, Progress: func(p Progress) { events = append(events, p) }}
	_, err := runGate(src, m, testConfig(4), []int64{1, 2, 3, 4, 5, 6, 7, 8}, opt)
	if err == nil {
		t.Fatal("runner swallowed the unit error")
	}
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	sawErr := false
	for _, p := range events {
		if p.Total != 8 || p.Completed < 1 || p.Completed > 8 || p.Block != 0 {
			t.Errorf("malformed progress event %+v", p)
		}
		if p.Err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("failing unit never reported through progress")
	}
}

// TestRunnerValidation: Run rejects an empty seed or block list, and a
// block's Label prefixes its unit errors.
func TestRunnerValidation(t *testing.T) {
	m := cheapModels(t)
	block := Block{Config: testConfig(4), Golden: &countingSource{}, Models: m}
	if _, _, err := Run(context.Background(), []Block{block}, nil, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, _, err := Run(context.Background(), nil, []int64{1}, nil); err == nil {
		t.Error("empty config list accepted")
	}
	block.Golden, block.Label = &countingSource{failSeed: 1}, "scenario 7"
	if _, _, err := Run(context.Background(), []Block{block}, []int64{1}, nil); err == nil ||
		!strings.HasPrefix(err.Error(), "scenario 7: eval: seed 1: synthetic golden failure") {
		t.Errorf("labelled unit error = %v", err)
	}
}

func TestMergeSeedResultsNaNOnZeroBaseline(t *testing.T) {
	cfg := testConfig(4)
	parts := []SeedResult{{
		Config: cfg,
		Seed:   1,
		Area:   map[string]float64{ModelInertial: 0, ModelHM: 1e-12},
	}}
	res := MergeSeedResults(cfg, parts)
	for name, v := range res.Normalized {
		if !math.IsNaN(v) {
			t.Errorf("Normalized[%s] = %g with zero baseline, want NaN", name, v)
		}
	}
}

// TestEvaluateParallelDeterministic: the acceptance property of the
// concurrent engine — identical results for 1, 4 and 8 workers, all
// bit-identical to the serial reference (run under -race in CI).
func TestEvaluateParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	benches := NewGateBenchSource(evalBench(t))
	m := cheapModels(t)
	cfg := testConfig(40)
	seeds := []int64{1, 2, 3, 4, 5, 6}

	serial, err := serialRun(benches, m, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewGoldenCache()
	src := CachedSource{Gate: "nor2", Bench: benches.Params(), Cache: cache, Src: benches}
	for _, workers := range []int{1, 4, 8} {
		res, err := runGate(src, m, cfg, seeds, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, serial) {
			t.Errorf("workers=%d: %+v != serial %+v", workers, res, serial)
		}
	}
	st := cache.Stats()
	if st.Misses != int64(len(seeds)) {
		t.Errorf("cache misses = %d, want one per seed (%d)", st.Misses, len(seeds))
	}
	if st.Hits != int64(2*len(seeds)) {
		t.Errorf("cache hits = %d, want %d (two warm passes)", st.Hits, 2*len(seeds))
	}
}
