package hybriddelay

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
)

// Session is the only evaluation entry point. These property tests pin
// its determinism contract: for every workload shape a Session result
// is bit-identical (reflect.DeepEqual on results, byte equality on
// encoded reports) to the serial reference built from the per-unit
// primitives, for one worker and for several, across several
// configurations and seed lists.

// fastFacadeParams returns coarse-step bench parameters for quick
// analog property runs.
func fastFacadeParams() BenchParams {
	p := DefaultBenchParams()
	p.MaxStep = 8e-12
	return p
}

// facadeModels prepares a NOR2 bench and model set at the fast
// operating point.
func facadeModels(t *testing.T) (*Bench, Models) {
	t.Helper()
	b, err := NewBench(fastFacadeParams())
	if err != nil {
		t.Fatal(err)
	}
	target, err := MeasureCharacteristic(b)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModels(target, b.Params().Supply, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	return b, m
}

// propertyConfigs returns the waveform configurations the properties
// quantify over: both stimulus flavours at small sizes.
func propertyConfigs(inputs int) []TraceConfig {
	mk := func(mode gen.Mode, mu, sigma float64, n int) TraceConfig {
		return TraceConfig{Mu: mu, Sigma: sigma, Mode: mode, Inputs: inputs,
			Transitions: n, Start: 200e-12}
	}
	return []TraceConfig{
		mk(gen.Local, 200e-12, 100e-12, 8),
		mk(gen.Global, 500e-12, 250e-12, 10),
	}
}

// serialGate is the serial reference of a gate job: each seed
// evaluated in order with eval.EvaluateSeedContext, then merged.
func serialGate(t *testing.T, bench GateBench, m Models, cfg TraceConfig, seeds []int64) RunResult {
	t.Helper()
	src := eval.NewGateBenchSource(bench)
	var parts []SeedResult
	for _, seed := range seeds {
		part, err := eval.EvaluateSeedContext(context.Background(), src, m, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	return eval.MergeSeedResults(cfg, parts)
}

// gateRow evaluates one configuration as a gate job on a fresh session
// with the given worker budget.
func gateRow(t *testing.T, workers int, name string, p BenchParams, cfg TraceConfig, seeds []int64) RunResult {
	t.Helper()
	res, err := NewSession(SessionOptions{Workers: workers}).Evaluate(context.Background(), GateJob{
		Gate: name, Params: &p, Configs: []TraceConfig{cfg}, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Gate[0]
}

func TestEvaluateParallelDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	bench, m := facadeModels(t)
	seeds := []int64{1, 2}
	for _, cfg := range propertyConfigs(2) {
		want := serialGate(t, bench, m, cfg, seeds)
		if got := gateRow(t, 4, "nor2", bench.Params(), cfg, seeds); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: 4-worker session diverged from the serial reference:\n got %+v\nwant %+v",
				cfg.Name(), got, want)
		}
	}
}

func TestEvaluateGateDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	p := fastFacadeParams()
	for _, name := range []string{"nor2", "nand2"} {
		g, ok := LookupGate(name)
		if !ok {
			t.Fatalf("gate %s not registered", name)
		}
		bench, err := g.NewBench(p)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := bench.Measure()
		if err != nil {
			t.Fatal(err)
		}
		m, err := g.BuildModels(meas, p.Supply, 20e-12)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range propertyConfigs(g.Arity())[:1] {
			want := serialGate(t, bench, m, cfg, []int64{1, 2})
			for _, workers := range []int{1, 3} {
				if got := gateRow(t, workers, name, p, cfg, []int64{1, 2}); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: %d-worker session diverged from the serial reference:\n got %+v\nwant %+v",
						name, cfg.Name(), workers, got, want)
				}
			}
		}
	}
}

func TestEvaluateCircuitDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	nl, err := BuiltinNetlist("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	p := fastFacadeParams()
	ms, err := BuildNetlistModels(nl, p, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2}
	for _, cfg := range propertyConfigs(len(nl.Inputs))[:1] {
		bench, err := NewCircuitBench(nl, p)
		if err != nil {
			t.Fatal(err)
		}
		src := eval.NewCircuitBenchSource(bench)
		var parts []CircuitSeedResult
		for _, seed := range seeds {
			part, err := eval.EvaluateCircuitSeedContext(context.Background(), src, nl, ms, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
		want := eval.MergeCircuitSeedResults(nl, cfg, parts)
		want.Solver = src.SolverStats()
		for _, workers := range []int{1, 2} {
			res, err := NewSession(SessionOptions{Workers: workers}).Evaluate(context.Background(), CircuitJob{
				Netlist: nl, Params: &p, Config: cfg, Seeds: seeds,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := *res.Circuit; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d-worker session diverged from the serial reference:\n got %+v\nwant %+v",
					cfg.Name(), workers, got, want)
			}
		}
	}
}

func TestRunSweepDelegatesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	spec := SweepSpec{
		Gates:    []string{"nor2", "nand2"},
		VDDScale: []float64{1, 0.95},
		Stimuli: []SweepStimulus{
			{Mode: StimulusLocal, Mu: 200e-12, Sigma: 100e-12, Transitions: 8},
		},
		Seeds: []int64{1, 2},
		Bench: &p,
	}
	encode := func(rep *SweepReport) (string, string) {
		t.Helper()
		rep.ClearTimings()
		var j, c bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	run := func(s *Session) (string, string) {
		t.Helper()
		res, err := s.Evaluate(context.Background(), SweepJob{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return encode(res.Sweep)
	}
	wj, wc := run(NewSession(SessionOptions{Workers: 1}))
	if gj, gc := run(NewSession(SessionOptions{Workers: 4})); gj != wj || gc != wc {
		t.Errorf("4-worker session sweep diverged from the serial one:\n--- 4 workers JSON ---\n%s\n--- serial JSON ---\n%s\n--- 4 workers CSV ---\n%s\n--- serial CSV ---\n%s",
			gj, wj, gc, wc)
	}
	// A session whose parametrization cache already holds every
	// scenario's operating point (no re-measurement) but whose golden
	// cache is empty still encodes byte-identically.
	scenarios, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSession(SessionOptions{Workers: 4})
	for _, sc := range scenarios {
		g, ok := LookupGate(sc.Gate)
		if !ok {
			t.Fatalf("gate %q not registered", sc.Gate)
		}
		if _, err := warm.ParamCache().OperatingPoint(context.Background(), g, sc.Params, DefaultSessionExpDMin); err != nil {
			t.Fatal(err)
		}
	}
	prepared := warm.ParamCache().Stats().Misses
	if aj, ac := run(warm); aj != wj || ac != wc {
		t.Error("sweep with parametrization served from cache is not byte-identical to the cold run")
	}
	if st := warm.ParamCache().Stats(); st.Hits == 0 || st.Misses != prepared {
		t.Errorf("sweep over prepared points re-prepared or never hit: %+v (%d prepared before)", st, prepared)
	}
}

func TestFacadeSessionSurface(t *testing.T) {
	s := NewSession(SessionOptions{Workers: 2})
	if s.GoldenCache() == nil || s.ParamCache() == nil {
		t.Fatal("session did not create its caches")
	}
	if st := s.GoldenCache().Stats(); st != (CacheStats{}) {
		t.Errorf("fresh golden cache stats = %+v", st)
	}
	if st := s.ParamCache().Stats(); st != (ParamCacheStats{}) {
		t.Errorf("fresh param cache stats = %+v", st)
	}
	if _, err := s.Evaluate(context.Background(), CircuitJob{}); err == nil {
		t.Error("invalid job accepted through the facade surface")
	}
	// The netlist helper types still round-trip through session jobs.
	var job Job = SweepJob{}
	if _, ok := job.(SweepJob); !ok {
		t.Error("job interface lost the concrete type")
	}
	_ = netlist.ModelSet{} // facade alias target stays importable
}

// TestFacadeGoldenStoreRoundTrip: a Session with a persistent store
// mounted through the facade warm-starts a later Session from disk —
// the second run's result is bit-identical and its golden traces come
// from the store, not fresh transient solves.
func TestFacadeGoldenStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("analog property in -short mode")
	}
	dir := t.TempDir()
	cfg := propertyConfigs(2)[0]
	p := fastFacadeParams()
	job := GateJob{Gate: "nor2", Params: &p,
		Configs: []TraceConfig{cfg}, Seeds: []int64{1}}

	st, err := OpenGoldenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewSession(SessionOptions{Workers: 2, Store: st})
	want, err := cold.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenGoldenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := NewSession(SessionOptions{Workers: 2, Store: st2})
	got, err := warm.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Gate, want.Gate) {
		t.Errorf("store-warmed run diverged:\n got %+v\nwant %+v", got.Gate, want.Gate)
	}
	var stats GoldenStoreStats = st2.Stats()
	if stats.Hits == 0 {
		t.Errorf("warm run hit the disk store 0 times (stats %+v)", stats)
	}
	if stats.Misses != 0 || stats.Writes != 0 {
		t.Errorf("warm run was not fully served from disk: %+v", stats)
	}
}

// TestFacadeReexportExercise keeps the thin re-export wrappers covered:
// constructing each aliased engine piece through the facade must stay
// working even though the heavy paths are tested against the internals.
func TestFacadeReexportExercise(t *testing.T) {
	if len(Gates()) < 3 {
		t.Errorf("Gates() = %v, want the registered registry", Gates())
	}
	if DefaultGate().Name() != "nor2" {
		t.Errorf("DefaultGate = %q", DefaultGate().Name())
	}
	g, _ := LookupGate("nand2")
	if _, err := g.NewBench(fastFacadeParams()); err != nil {
		t.Fatal(err)
	}
	nl, err := BuiltinNetlist("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCircuitBench(nl, fastFacadeParams()); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator()
	ms := NetlistModels{}
	if _, err := ElaborateNetlist(nl, sim, nil, WireNetlistModel(ms, ModelInertial)); err == nil {
		t.Error("elaboration with an empty model set must fail")
	}
}
