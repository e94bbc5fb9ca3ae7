package eval

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// fastNorParams returns the calibrated bench parameters with the
// coarser integrator step the analog test suites use.
func fastNorParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

// singleNOR2Netlist wraps one nor2 instance: the circuit pipeline's
// degenerate case that must reproduce the per-gate pipeline exactly.
func singleNOR2Netlist() *netlist.Netlist {
	return &netlist.Netlist{
		Name:   "single-nor2",
		Inputs: []string{"a", "b"},
		Instances: []netlist.Instance{
			{Name: "g", Gate: "nor2", Inputs: []string{"a", "b"}, Output: "o"},
		},
	}
}

// chainNetlist returns the NOR + inverter-chain acceptance circuit.
func chainNetlist(t *testing.T, stages int) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.InverterChain("chain", stages)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// circuitSource builds a pooled composed bench for nl.
func circuitSource(t *testing.T, nl *netlist.Netlist, p nor.Params) *CircuitBenchSource {
	t.Helper()
	b, err := netlist.NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	return NewCircuitBenchSource(b)
}

// runCircuit evaluates one circuit configuration through Run on a
// fresh composed bench pool, behind cache when it is non-nil.
func runCircuit(t *testing.T, nl *netlist.Netlist, p nor.Params, ms netlist.ModelSet, cfg gen.Config,
	seeds []int64, workers int, cache *GoldenCache) (CircuitResult, error) {
	t.Helper()
	var src CircuitGoldenSource = circuitSource(t, nl, p)
	if cache != nil {
		src = CachedCircuitSource{Key: nl.ContentKey(), Bench: p, Cache: cache, Src: src}
	}
	_, parts, err := Run(context.Background(), []Block{{Config: cfg, Circuit: src, Netlist: nl, Set: ms}}, seeds, &Options{Workers: workers})
	if err != nil {
		return CircuitResult{}, err
	}
	return MergeCircuitSeedResults(nl, cfg, parts), nil
}

// TestSingleGateCircuitBitIdentical is the property test of the
// netlist refactor: a single-gate netlist's golden trace and accuracy
// scores are bit-identical to the per-gate pipeline — same areas, same
// normalized ratios, same golden event counts.
func TestSingleGateCircuitBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	b := evalBench(t)
	m := cheapModels(t)
	cfg := testConfig(24)
	seeds := []int64{1, 2, 3}

	want, err := serialRun(NewGateBenchSource(b), m, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}

	nl := singleNOR2Netlist()
	got, err := runCircuit(t, nl, b.Params(), netlist.ModelSet{"nor2": m}, cfg, seeds, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.GoldenEv == 0 {
		t.Fatal("golden produced no events (weak test)")
	}
	if got.GoldenEv["o"] != want.GoldenEv {
		t.Errorf("golden events = %d, want %d", got.GoldenEv["o"], want.GoldenEv)
	}
	for _, model := range ModelNames {
		if got.Area["o"][model] != want.Area[model] {
			t.Errorf("Area[o][%s] = %g, per-gate pipeline %g", model, got.Area["o"][model], want.Area[model])
		}
		if got.TotalArea[model] != want.Area[model] {
			t.Errorf("TotalArea[%s] = %g, per-gate pipeline %g", model, got.TotalArea[model], want.Area[model])
		}
		if got.Normalized["o"][model] != want.Normalized[model] {
			t.Errorf("Normalized[o][%s] = %g, per-gate pipeline %g",
				model, got.Normalized["o"][model], want.Normalized[model])
		}
	}
}

// TestEvaluateCircuitDeterministicAcrossWorkers: the chain circuit's
// report is bit-identical for 1 and 8 workers (run under -race by CI),
// and a shared cache serves the repeat runs entirely from memory.
func TestEvaluateCircuitDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	nl := chainNetlist(t, 2)
	m := cheapModels(t)
	ms := netlist.ModelSet{"nor2": m}
	p := evalBench(t).Params()
	cfg := testConfig(16)
	seeds := []int64{1, 2, 3, 4}

	cache := NewGoldenCache()
	serial, err := runCircuit(t, nl, p, ms, cfg, seeds, 1, cache)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != int64(len(seeds)) || st.Hits != 0 {
		t.Errorf("cold cache stats = %+v, want %d misses", st, len(seeds))
	}
	for _, workers := range []int{1, 8} {
		res, err := runCircuit(t, nl, p, ms, cfg, seeds, workers, cache)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range serial.Nets {
			if res.GoldenEv[net] != serial.GoldenEv[net] {
				t.Errorf("workers=%d: golden events[%s] = %d != %d",
					workers, net, res.GoldenEv[net], serial.GoldenEv[net])
			}
			for _, model := range ModelNames {
				if res.Area[net][model] != serial.Area[net][model] {
					t.Errorf("workers=%d: Area[%s][%s] = %g != %g",
						workers, net, model, res.Area[net][model], serial.Area[net][model])
				}
			}
		}
		for _, model := range ModelNames {
			if res.TotalNormalized[model] != serial.TotalNormalized[model] {
				t.Errorf("workers=%d: TotalNormalized[%s] = %g != %g",
					workers, model, res.TotalNormalized[model], serial.TotalNormalized[model])
			}
		}
	}
	if st := cache.Stats(); st.Hits != int64(2*len(seeds)) {
		t.Errorf("warm cache hits = %d, want %d", st.Hits, 2*len(seeds))
	}
	// The composed golden must differ from any single gate's: the chain
	// scores carry per-net entries for every stage.
	if len(serial.Nets) != 3 {
		t.Errorf("chain recorded %d nets, want 3", len(serial.Nets))
	}
}

// syntheticCircuitSource returns fixed traces without analog work.
type syntheticCircuitSource struct {
	mu    sync.Mutex
	calls int
	nets  []string
}

func (s *syntheticCircuitSource) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	out := map[string]trace.Trace{}
	for _, net := range s.nets {
		out[net] = trace.New(true, []trace.Event{{Time: 1e-9, Value: false}})
	}
	return out, nil
}

func TestCachedCircuitSourceSingleflight(t *testing.T) {
	inner := &syntheticCircuitSource{nets: []string{"o"}}
	cache := NewGoldenCache()
	src := CachedCircuitSource{Key: "v1|test", Bench: fastNorParams(), Cache: cache, Src: inner}
	req := GoldenRequest{Config: testConfig(8), Seed: 1}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := src.GoldenNets(req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if inner.calls != 1 {
		t.Errorf("inner source computed %d times, want 1 (singleflight)", inner.calls)
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 7 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss / 7 hits / 1 entry", st)
	}
	// A different seed computes again.
	req.Seed = 2
	if _, err := src.GoldenNets(req); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 2 {
		t.Errorf("second seed served from cache (%d calls)", inner.calls)
	}
}

func TestGetOrComputeSetDoesNotCacheErrors(t *testing.T) {
	cache := NewGoldenCache()
	key := CircuitKey("v1|x", fastNorParams(), testConfig(8), 1)
	if _, _, err := cache.GetOrComputeSet(key, func() (map[string]trace.Trace, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("error swallowed")
	}
	out, hit, err := cache.GetOrComputeSet(key, func() (map[string]trace.Trace, error) {
		return map[string]trace.Trace{"o": {}}, nil
	})
	if err != nil || hit || out == nil {
		t.Errorf("retry after error: out=%v hit=%v err=%v", out, hit, err)
	}
}

// TestCircuitKeySeparateFromGateKeys: a circuit entry and a plain gate
// entry sharing bench parameters, config and seed never collide — the
// circuit key carries the "circuit:" prefix and lives in its own table.
func TestCircuitKeySeparateFromGateKeys(t *testing.T) {
	cache := NewGoldenCache()
	cfg := testConfig(8)
	p := fastNorParams()
	gateKey := GoldenKey{Gate: "nor2", Bench: p, Config: cfg, Seed: 1}
	if _, _, err := cache.GetOrCompute(gateKey, func() (trace.Trace, error) {
		return trace.Trace{Initial: true}, nil
	}); err != nil {
		t.Fatal(err)
	}
	out, hit, err := cache.GetOrComputeSet(CircuitKey("v1|single", p, cfg, 1),
		func() (map[string]trace.Trace, error) {
			return map[string]trace.Trace{"o": {Initial: false}}, nil
		})
	if err != nil || hit {
		t.Fatalf("circuit entry hit the gate entry (hit=%v err=%v)", hit, err)
	}
	if out["o"].Initial {
		t.Error("circuit entry returned the gate trace")
	}
	if st := cache.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 entries / 2 misses", st)
	}
}

func TestEvaluateCircuitValidation(t *testing.T) {
	nl := singleNOR2Netlist()
	ms := netlist.ModelSet{"nor2": cheapModels(t)}
	p := fastNorParams()
	if _, err := runCircuit(t, nl, p, ms, testConfig(8), nil, 0, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	badCfg := testConfig(8)
	badCfg.Inputs = 3
	if _, err := runCircuit(t, nl, p, ms, badCfg, []int64{1}, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "primary inputs") {
		t.Errorf("input-count mismatch error = %v", err)
	}
	src := &syntheticCircuitSource{nets: []string{"o"}}
	if _, err := EvaluateCircuitSeedContext(context.Background(), src, nl, netlist.ModelSet{}, testConfig(8), 1); err == nil ||
		!strings.Contains(err.Error(), "no models") {
		t.Errorf("missing model set error = %v", err)
	}
}

func TestApplyInstanceModelUnknown(t *testing.T) {
	if _, err := applyInstanceModel(cheapModels(t), "bogus", []trace.Trace{{}, {}}, 1e-9); err == nil {
		t.Error("unknown model accepted")
	}
}

// failingCircuitSource errors on every request.
type failingCircuitSource struct{}

func (failingCircuitSource) GoldenNets(GoldenRequest) (map[string]trace.Trace, error) {
	return nil, fmt.Errorf("synthetic golden failure")
}

func TestEvaluateCircuitSeedGoldenError(t *testing.T) {
	nl := singleNOR2Netlist()
	ms := netlist.ModelSet{"nor2": cheapModels(t)}
	ctx := context.Background()
	_, err := EvaluateCircuitSeedContext(ctx, failingCircuitSource{}, nl, ms, testConfig(8), 1)
	if err == nil || !strings.Contains(err.Error(), "synthetic golden failure") {
		t.Errorf("golden error = %v", err)
	}
	// A golden source missing a recorded net is rejected.
	partial := &syntheticCircuitSource{nets: []string{"not-o"}}
	if _, err := EvaluateCircuitSeedContext(ctx, partial, nl, ms, testConfig(8), 1); err == nil ||
		!strings.Contains(err.Error(), `no trace for net "o"`) {
		t.Errorf("missing-net error = %v", err)
	}
	// Errors pass through the cached wrapper without being cached.
	cache := NewGoldenCache()
	src := CachedCircuitSource{Key: "v1|err", Bench: fastNorParams(), Cache: cache, Src: failingCircuitSource{}}
	if _, err := src.GoldenNets(GoldenRequest{Config: testConfig(8), Seed: 1}); err == nil {
		t.Error("cached wrapper swallowed the error")
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("error was cached: %+v", st)
	}
}

// TestMergeCircuitSeedResultsNaN: a zero inertial baseline yields NaN
// normalized entries, as in the single-gate merge.
func TestMergeCircuitSeedResultsNaN(t *testing.T) {
	nl := singleNOR2Netlist()
	cfg := testConfig(8)
	part := CircuitSeedResult{
		Config: cfg, Seed: 1, Nets: []string{"o"},
		Area:     map[string]map[string]float64{"o": {ModelInertial: 0, ModelHM: 1e-12}},
		GoldenEv: map[string]int{"o": 2},
	}
	res := MergeCircuitSeedResults(nl, cfg, []CircuitSeedResult{part})
	if !math.IsNaN(res.Normalized["o"][ModelHM]) || !math.IsNaN(res.TotalNormalized[ModelHM]) {
		t.Errorf("zero baseline not NaN: %+v", res.Normalized["o"])
	}
	if res.GoldenEv["o"] != 2 {
		t.Errorf("golden events = %d, want 2", res.GoldenEv["o"])
	}
}
