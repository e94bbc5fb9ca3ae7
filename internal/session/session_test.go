package session

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// fastParams returns coarse-step bench parameters for quick analog
// test runs.
func fastParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

// testConfig returns a small evaluation configuration for n inputs.
func testConfig(inputs, transitions int) gen.Config {
	return gen.Config{
		Mu:          200 * waveform.Pico,
		Sigma:       100 * waveform.Pico,
		Mode:        gen.Local,
		Inputs:      inputs,
		Transitions: transitions,
		Start:       200 * waveform.Pico,
	}
}

// testSweepSpec returns a one-gate, two-stimulus grid at the fast
// operating point (vdd/load scale 1, so it shares the gate jobs'
// parametrization key).
func testSweepSpec(transitions int) sweep.Spec {
	p := fastParams()
	return sweep.Spec{
		Gates: []string{"nor2"},
		Stimuli: []sweep.Stimulus{
			{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: transitions},
			{Mode: gen.Global, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: transitions},
		},
		Seeds: []int64{1, 2},
		Bench: &p,
	}
}

// TestSessionGateJobMatchesLegacyRunner: a gate job on a 4-worker
// session is bit-identical to the serial reference — the same model
// set, measured and fitted by hand, evaluated seed by seed with
// eval.EvaluateSeedContext and merged with eval.MergeSeedResults.
func TestSessionGateJobMatchesLegacyRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	bench, err := gate.NOR2.NewBench(p)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := bench.Measure()
	if err != nil {
		t.Fatal(err)
	}
	models, err := gate.NOR2.BuildModels(meas, p.Supply, DefaultExpDMin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, 10)
	seeds := []int64{1, 2}

	src := eval.NewGateBenchSource(bench)
	var parts []eval.SeedResult
	for _, seed := range seeds {
		part, err := eval.EvaluateSeedContext(context.Background(), src, models, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	want := eval.MergeSeedResults(cfg, parts)

	s := New(Options{Workers: 4})
	res, err := s.Evaluate(context.Background(), GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{cfg}, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindGate || len(res.Gate) != 1 {
		t.Fatalf("result shape: kind=%s rows=%d", res.Kind, len(res.Gate))
	}
	if !reflect.DeepEqual(res.Gate[0], want) {
		t.Errorf("session result differs from the serial evaluation:\n got %+v\nwant %+v", res.Gate[0], want)
	}
	if res.Models == nil || !reflect.DeepEqual(*res.Models, models) {
		t.Error("result does not carry the evaluated model set")
	}
}

func TestSessionGateJobPreparesOnceAndCachesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	s := New(Options{Workers: 2})
	job := GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 8)}, Seeds: []int64{1, 2},
	}
	first, err := s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats.Params; st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cold job param stats %+v, want exactly one prepared point", st)
	}
	if st := first.Stats.Golden; st.Misses != 2 || st.Hits != 0 {
		t.Errorf("cold job golden stats %+v, want 2 misses (one per seed)", st)
	}
	again, err := s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats.Params; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("warm job param stats %+v, want a hit and no new miss", st)
	}
	if st := again.Stats.Golden; st.Misses != 2 || st.Hits != 2 {
		t.Errorf("warm job golden stats %+v, want every golden served from cache", st)
	}
	if !reflect.DeepEqual(first.Gate, again.Gate) {
		t.Error("warm evaluation differs from cold")
	}
}

// TestSessionCircuitJobMatchesLegacy: a circuit job on a 2-worker
// session is bit-identical to the serial reference — the member model
// sets built by hand, each seed evaluated in order with
// eval.EvaluateCircuitSeedContext and merged — including the solver
// traffic of its composed bench pool.
func TestSessionCircuitJobMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	nl, err := netlist.Builtin("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	cfg := testConfig(len(nl.Inputs), 8)
	seeds := []int64{1, 2}

	ms, err := netlist.BuildModelSet(nl, p, DefaultExpDMin)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := netlist.NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	src := eval.NewCircuitBenchSource(bench)
	var parts []eval.CircuitSeedResult
	for _, seed := range seeds {
		part, err := eval.EvaluateCircuitSeedContext(context.Background(), src, nl, ms, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	want := eval.MergeCircuitSeedResults(nl, cfg, parts)
	want.Solver = src.SolverStats()

	s := New(Options{Workers: 2})
	res, err := s.Evaluate(context.Background(), CircuitJob{
		Netlist: nl, Params: &p, Config: cfg, Seeds: seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindCircuit || res.Circuit == nil {
		t.Fatalf("result shape: kind=%s circuit=%v", res.Kind, res.Circuit)
	}
	if !reflect.DeepEqual(*res.Circuit, want) {
		t.Errorf("session circuit result differs from the serial evaluation:\n got %+v\nwant %+v", *res.Circuit, want)
	}
}

// TestSessionMixedGateCircuitJob: a circuit job over a netlist of three
// gate types prepares each member gate once, gives the same result on
// one and on three workers, and equals the serial reference (the model
// set from netlist.BuildModelSet at the default exp-channel delay, each
// seed evaluated in turn). A later sweep over the same netlist at the
// same operating point prepares nothing new.
func TestSessionMixedGateCircuitJob(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	nl := &netlist.Netlist{
		Name:   "mixed",
		Inputs: []string{"a", "b", "c"},
		Instances: []netlist.Instance{
			{Name: "g1", Gate: "nor2", Inputs: []string{"a", "b"}, Output: "x"},
			{Name: "g2", Gate: "nand2", Inputs: []string{"b", "c"}, Output: "y"},
			{Name: "g3", Gate: "nor3", Inputs: []string{"x", "b", "c"}, Output: "z"},
		},
	}
	p := fastParams()
	cfg := testConfig(len(nl.Inputs), 8)
	seeds := []int64{1, 2}
	run := func(workers int) (*eval.CircuitResult, *Session) {
		t.Helper()
		s := New(Options{Workers: workers})
		res, err := s.Evaluate(context.Background(), CircuitJob{Netlist: nl, Params: &p, Config: cfg, Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.ParamCache().Stats(); st.Misses != 3 {
			t.Errorf("%d workers: %d operating points prepared, want 3 (one per gate type)", workers, st.Misses)
		}
		return res.Circuit, s
	}
	serial, _ := run(1)
	got, s := run(3)
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("3-worker circuit result differs from the 1-worker one:\n got %+v\nwant %+v", *got, *serial)
	}

	ms, err := netlist.BuildModelSet(nl, p, DefaultExpDMin)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := netlist.NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	src := eval.NewCircuitBenchSource(bench)
	var parts []eval.CircuitSeedResult
	for _, seed := range seeds {
		part, err := eval.EvaluateCircuitSeedContext(context.Background(), src, nl, ms, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	want := eval.MergeCircuitSeedResults(nl, cfg, parts)
	want.Solver = src.SolverStats()
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("session circuit result differs from the serial evaluation:\n got %+v\nwant %+v", *got, want)
	}

	spec := sweep.Spec{
		Circuits: []netlist.Netlist{*nl},
		Stimuli:  []sweep.Stimulus{{Mode: gen.Local, Mu: cfg.Mu, Sigma: cfg.Sigma, Transitions: cfg.Transitions}},
		Seeds:    seeds,
		Bench:    &p,
	}
	if _, err := s.Evaluate(context.Background(), SweepJob{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if st := s.ParamCache().Stats(); st.Misses != 3 {
		t.Errorf("the sweep over the same netlist prepared again: %d misses, want still 3", st.Misses)
	}
}

// TestSessionSweepJobWorkerIndependence: a sweep job's report, with
// timings cleared, encodes byte-identically on a 1-worker and a
// 4-worker session, and both deliver the same progress stream: one
// prepare event per operating point and one eval event per (scenario,
// seed) unit, each phase counting 1..Total in delivery order.
func TestSessionSweepJobWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := testSweepSpec(8)
	spec.VDDScale = []float64{1, 0.95}
	type unit struct {
		phase    string
		scenario int
		seed     int64
		total    int
	}
	run := func(workers int) (string, []unit) {
		t.Helper()
		var units []unit
		next := map[string]int{}
		res, err := New(Options{Workers: workers}).Evaluate(context.Background(), SweepJob{Spec: spec, Progress: func(p Progress) {
			next[p.Phase]++
			if p.Kind != KindSweep || p.Err != nil || p.Completed != next[p.Phase] {
				t.Errorf("%d workers: progress event %+v, want a clean sweep event numbered %d", workers, p, next[p.Phase])
			}
			units = append(units, unit{p.Phase, p.Scenario, p.Seed, p.Total})
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != KindSweep || res.Sweep == nil {
			t.Fatalf("result shape: kind=%s sweep=%v", res.Kind, res.Sweep)
		}
		res.Sweep.ClearTimings()
		var buf bytes.Buffer
		if err := res.Sweep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		// Units complete in any order; the stream is the same set.
		sort.Slice(units, func(i, j int) bool {
			a, b := units[i], units[j]
			if a.phase != b.phase {
				return a.phase == PhasePrepare
			}
			if a.scenario != b.scenario {
				return a.scenario < b.scenario
			}
			return a.seed < b.seed
		})
		return buf.String(), units
	}
	wantJSON, wantUnits := run(1)
	gotJSON, gotUnits := run(4)
	if gotJSON != wantJSON {
		t.Errorf("4-worker sweep report differs from the 1-worker one:\n--- 4 workers ---\n%s\n--- 1 worker ---\n%s", gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(gotUnits, wantUnits) {
		t.Errorf("4-worker progress stream differs from the 1-worker one:\n got %+v\nwant %+v", gotUnits, wantUnits)
	}
	// One nor2 point per VDD scale, then 2 scales × 2 stimuli × 2 seeds.
	if len(wantUnits) != 2+8 || wantUnits[0] != (unit{PhasePrepare, -1, 0, 2}) || wantUnits[2] != (unit{PhaseEval, 0, 1, 8}) {
		t.Errorf("progress stream %+v, want 2 prepare events then 8 eval units", wantUnits)
	}
}

// TestSessionMixedJobsConcurrent is the acceptance test of the unified
// engine: one Session evaluates a gate job, a circuit job and a sweep
// simultaneously (under -race), produces byte-identical reports to
// serial execution, and serves the operating point all three workloads
// share from one parametrization — the cache records exactly one
// preparation and a hit for each reuse.
func TestSessionMixedJobsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	nl, err := netlist.Builtin("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	gateJob := GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 8)}, Seeds: []int64{1, 2},
	}
	circuitJob := CircuitJob{
		Netlist: nl, Params: &p, Config: testConfig(len(nl.Inputs), 8), Seeds: []int64{1, 2},
	}
	// The sweep's stimuli (9 transitions) share no golden key with the
	// gate job's (8), so its per-scenario cache rows cannot depend on
	// what the other jobs put into the shared cache first — the
	// byte-identity assertion needs schedule-independent reports. The
	// parametrization cache is shared: reuse there is invisible to
	// report bytes (preparation is deterministic).
	sweepJob := SweepJob{Spec: testSweepSpec(9)}
	run := func(s *Session, concurrent bool) (gateRows []eval.RunResult, circ eval.CircuitResult, sweepJSON string) {
		t.Helper()
		var gres, cres, sres *Result
		if concurrent {
			var wg sync.WaitGroup
			errs := make([]error, 3)
			wg.Add(3)
			go func() { defer wg.Done(); gres, errs[0] = s.Evaluate(context.Background(), gateJob) }()
			go func() { defer wg.Done(); cres, errs[1] = s.Evaluate(context.Background(), circuitJob) }()
			go func() { defer wg.Done(); sres, errs[2] = s.Evaluate(context.Background(), sweepJob) }()
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var err error
			if gres, err = s.Evaluate(context.Background(), gateJob); err != nil {
				t.Fatal(err)
			}
			if cres, err = s.Evaluate(context.Background(), circuitJob); err != nil {
				t.Fatal(err)
			}
			if sres, err = s.Evaluate(context.Background(), sweepJob); err != nil {
				t.Fatal(err)
			}
		}
		sres.Sweep.ClearTimings()
		var buf bytes.Buffer
		if err := sres.Sweep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return gres.Gate, *cres.Circuit, buf.String()
	}

	serial := New(Options{Workers: 2})
	wantGate, wantCirc, wantSweep := run(serial, false)

	mixed := New(Options{Workers: 4})
	gotGate, gotCirc, gotSweep := run(mixed, true)

	if !reflect.DeepEqual(gotGate, wantGate) {
		t.Errorf("concurrent gate rows differ from serial:\n got %+v\nwant %+v", gotGate, wantGate)
	}
	if !reflect.DeepEqual(gotCirc, wantCirc) {
		t.Errorf("concurrent circuit result differs from serial:\n got %+v\nwant %+v", gotCirc, wantCirc)
	}
	if gotSweep != wantSweep {
		t.Errorf("concurrent sweep report differs from serial:\n--- concurrent ---\n%s\n--- serial ---\n%s", gotSweep, wantSweep)
	}

	// All three workloads run nor2 at the same (params, expDMin) point:
	// one preparation, two cache hits — no re-measurement, no re-fit.
	st := mixed.ParamCache().Stats()
	if st.Misses != 1 || st.Entries != 1 {
		t.Errorf("mixed-session param stats %+v, want exactly one prepared operating point", st)
	}
	if st.Hits < 2 {
		t.Errorf("mixed-session param stats %+v, want >= 2 hits (circuit and sweep reuse)", st)
	}
}

// TestSessionSweepReportOwnLookups: a sweep report counts the sweep's
// own golden lookups, so an unrelated gate job run first on the same
// session leaves the report as a fresh session's; the result's
// Stats.Golden still describes the whole session cache.
func TestSessionSweepReportOwnLookups(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	gateJob := GateJob{Gate: "nor2", Params: &p, Configs: []gen.Config{testConfig(2, 8)}, Seeds: []int64{1, 2}}
	sweepJSON := func(s *Session) string {
		t.Helper()
		res, err := s.Evaluate(context.Background(), SweepJob{Spec: testSweepSpec(9)})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.GoldenCache().Stats(); res.Stats.Golden != got {
			t.Errorf("sweep Stats.Golden %+v, want the session cache %+v", res.Stats.Golden, got)
		}
		res.Sweep.ClearTimings()
		var buf bytes.Buffer
		if err := res.Sweep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	fresh := sweepJSON(New(Options{Workers: 2}))
	s := New(Options{Workers: 2})
	if _, err := s.Evaluate(context.Background(), gateJob); err != nil {
		t.Fatal(err)
	}
	if after := sweepJSON(s); after != fresh {
		t.Errorf("sweep report after a gate job differs from a fresh session's:\n--- after ---\n%s\n--- fresh ---\n%s", after, fresh)
	}
}

func TestSessionCancellation(t *testing.T) {
	s := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := fastParams()
	if _, err := s.Evaluate(ctx, GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 8)}, Seeds: []int64{1},
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled gate job returned %v, want context.Canceled", err)
	}
	if _, err := s.Evaluate(ctx, SweepJob{Spec: testSweepSpec(4)}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep job returned %v, want context.Canceled", err)
	}
	nl, err := netlist.Builtin("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(ctx, CircuitJob{
		Netlist: nl, Params: &p, Config: testConfig(2, 8), Seeds: []int64{1},
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled circuit job returned %v, want context.Canceled", err)
	}
}

func TestSessionJobValidation(t *testing.T) {
	s := New(Options{})
	ctx := context.Background()
	if _, err := s.Evaluate(ctx, nil); err == nil {
		t.Error("nil job accepted")
	}
	if _, err := s.Evaluate(ctx, GateJob{Gate: "xor7", Configs: []gen.Config{testConfig(2, 4)}, Seeds: []int64{1}}); err == nil {
		t.Error("unknown gate accepted")
	}
	if _, err := s.Evaluate(ctx, CircuitJob{}); err == nil {
		t.Error("nil netlist accepted")
	}
	if _, err := s.Evaluate(ctx, SweepJob{}); err == nil {
		t.Error("empty sweep spec accepted")
	}
}

// TestSessionRejectsEmptyJobs: a gate job without configurations or
// seeds, and a circuit job without seeds, fail with an error naming the
// missing field before any operating point is prepared.
func TestSessionRejectsEmptyJobs(t *testing.T) {
	p := fastParams()
	nl, err := netlist.Builtin("nor-invchain")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		job   Job
		field string
	}{
		{GateJob{Gate: "nor2", Params: &p}, "GateJob.Configs"},
		{GateJob{Gate: "nor2", Params: &p, Seeds: []int64{1}}, "GateJob.Configs"},
		{GateJob{Gate: "nor2", Params: &p, Configs: []gen.Config{testConfig(2, 4)}}, "GateJob.Seeds"},
		{CircuitJob{Netlist: nl, Params: &p, Config: testConfig(2, 4)}, "CircuitJob.Seeds"},
	} {
		s := New(Options{Workers: 2})
		_, err := s.Evaluate(context.Background(), tc.job)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", tc.job, err, tc.field)
		}
		if st := s.ParamCache().Stats(); st.Misses != 0 {
			t.Errorf("%+v: %d operating points prepared before the job was refused", tc.job, st.Misses)
		}
	}
}

func TestSessionProgressStream(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	s := New(Options{Workers: 2})
	var mu sync.Mutex
	var events []Progress
	_, err := s.Evaluate(context.Background(), GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 8)}, Seeds: []int64{1, 2},
		Progress: func(pr Progress) {
			mu.Lock()
			events = append(events, pr)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2 (one per unit)", len(events))
	}
	for _, ev := range events {
		if ev.Kind != KindGate || ev.Phase != PhaseEval || ev.Total != 2 || ev.Scenario != -1 {
			t.Errorf("unexpected progress event %+v", ev)
		}
	}
	if events[len(events)-1].Completed != 2 {
		t.Errorf("last event completed=%d, want 2", events[len(events)-1].Completed)
	}
}

func TestSessionAccessorsAndDefaults(t *testing.T) {
	s := New(Options{Workers: 3})
	if got := s.Workers(); got != 3 {
		t.Errorf("Workers() = %d, want the session budget 3", got)
	}
	p := fastParams()
	if s.paramsOr(&p) != p || s.paramsOr(nil) != nor.DefaultParams() {
		t.Error("paramsOr resolution wrong")
	}
	sparse := New(Options{Solver: spice.SparseFast})
	if got := sparse.paramsOr(nil).Solver; got != spice.SparseFast {
		t.Errorf("paramsOr(nil) on a sparse session has Solver %v, want sparse-fast", got)
	}
	if got := sparse.paramsOr(&p).Solver; got != spice.DenseExact {
		t.Errorf("explicit params must keep their own Solver, got %v", got)
	}
	kinds := []struct {
		job  Job
		want Kind
	}{
		{GateJob{}, KindGate}, {CircuitJob{}, KindCircuit}, {SweepJob{}, KindSweep},
	}
	for _, k := range kinds {
		if k.job.kind() != k.want {
			t.Errorf("%T kind = %s, want %s", k.job, k.job.kind(), k.want)
		}
	}
	// A defaulted session builds its own caches.
	d := New(Options{})
	if d.GoldenCache() == nil || d.ParamCache() == nil || d.workers < 1 {
		t.Error("defaulted session is missing resources")
	}
}

// TestSessionGoldenCacheControls pins the per-job golden-cache
// resolution: NoCache evaluates without memoization (nothing stored,
// zero stats), and a default job accrues on the session cache.
func TestSessionGoldenCacheControls(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	s := New(Options{Workers: 2})
	job := GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 8)}, Seeds: []int64{1},
	}

	nc := job
	nc.NoCache = true
	res, err := s.Evaluate(context.Background(), nc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Golden != (eval.CacheStats{}) {
		t.Errorf("NoCache job reported golden stats %+v, want zero", res.Stats.Golden)
	}
	if st := s.GoldenCache().Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("NoCache job touched the session cache: %+v", st)
	}

	res, err = s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.GoldenCache().Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("session cache stats %+v, want the job's one golden run", st)
	}
	if res.Stats.Golden != s.GoldenCache().Stats() {
		t.Errorf("result stats %+v do not describe the session cache %+v", res.Stats.Golden, s.GoldenCache().Stats())
	}
}

// TestSessionSolverStatsSurface: a job's Result must carry the MNA
// solver traffic of the transients it triggered — the operating-point
// measurement plus the golden runs.
func TestSessionSolverStatsSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	s := New(Options{Workers: 2})
	res, err := s.Evaluate(context.Background(), GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 6)},
		Seeds:   []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Solver
	if st.Steps == 0 || st.Iterations == 0 || st.Factorizations == 0 {
		t.Fatalf("solver stats %+v, want nonzero traffic from measurement and golden runs", st)
	}
	if st.SparseFactorizations != 0 {
		t.Errorf("dense job reports sparse factorizations: %+v", st)
	}

	// A second job on the warm session sees a cumulative, not smaller,
	// picture.
	res2, err := s.Evaluate(context.Background(), GateJob{
		Gate: "nor2", Params: &p,
		Configs: []gen.Config{testConfig(2, 6)},
		Seeds:   []int64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Solver.Steps < st.Steps {
		t.Errorf("solver stats went backwards across jobs: %+v then %+v", st, res2.Stats.Solver)
	}
}

// TestSessionSparseDefault: a session constructed with Solver:
// SparseFast runs default-parameter jobs through the sparse kernel and
// reports its traffic.
func TestSessionSparseDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	s := New(Options{Workers: 2, Solver: spice.SparseFast})
	ps := fastParams()
	ps.Solver = spice.SparseFast
	res, err := s.Evaluate(context.Background(), GateJob{
		Gate: "nor2", Params: &ps,
		Configs: []gen.Config{testConfig(2, 6)},
		Seeds:   []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Solver
	if st.SparseFactorizations == 0 || st.LinearReuses == 0 {
		t.Fatalf("sparse session solver stats %+v, want sparse kernel traffic", st)
	}
}

// TestSessionWarmPoolSymbolicSharing pins the acceptance criterion of
// the process-wide symbolic cache: a sparse job fanned over a worker
// pool runs at most one Markowitz pilot per distinct topology — every
// pooled clone adopts the shared analysis as a hit — and a warm repeat
// adds no analyses at all.
func TestSessionWarmPoolSymbolicSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	s := New(Options{Workers: 4, Solver: spice.SparseFast})
	ps := fastParams()
	ps.Solver = spice.SparseFast
	job := GateJob{
		Gate: "nor2", Params: &ps,
		Configs: []gen.Config{testConfig(2, 6)},
		Seeds:   []int64{1, 2, 3},
	}
	res, err := s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Solver
	if st.SymbolicMisses > 1 {
		t.Fatalf("warm pool ran %d symbolic analyses for one topology (stats %+v)", st.SymbolicMisses, st)
	}
	if st.SymbolicMisses+st.SymbolicHits == 0 {
		t.Fatalf("sparse job never consulted the symbolic cache: %+v", st)
	}

	job.Seeds = []int64{4}
	res2, err := s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := res2.Stats.Solver; st2.SymbolicMisses > 1 {
		t.Fatalf("warm repeat re-analyzed: %d misses (stats %+v)", st2.SymbolicMisses, st2)
	}
	if snap := s.Snapshot(); snap.Symbolic.Hits == 0 && snap.Symbolic.Misses == 0 {
		t.Errorf("session snapshot reports no shared symbolic-cache traffic: %+v", snap.Symbolic)
	}
}

// TestSessionCacheLimits: the session options plumb the memory bounds
// into both caches.
func TestSessionCacheLimits(t *testing.T) {
	s := New(Options{GoldenBudget: 3, ParamLimit: 1})
	for seed := int64(1); seed <= 3; seed++ {
		key := eval.GoldenKey{Gate: "limit-test", Seed: seed}
		if _, _, err := s.GoldenCache().GetOrCompute(key, func() (trace.Trace, error) {
			return trace.New(false, []trace.Event{{Time: 1e-12, Value: true}}), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.GoldenCache().Stats()
	if st.Evictions == 0 {
		t.Errorf("golden cache stats %+v, want evictions under a 10-cost budget", st)
	}
}
