package hybriddelay

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFacadeTraces: trace construction and algebra through the facade.
func TestFacadeTraces(t *testing.T) {
	a := NewTrace(false, 10e-12, 30e-12)
	if a.NumEvents() != 2 || a.Initial {
		t.Fatalf("NewTrace wrong: %+v", a)
	}
	b := NewTrace(false, 20e-12)
	nor := NOR2Trace(a, b)
	if !nor.Initial {
		t.Error("NOR of low inputs must start high")
	}
	d := DeviationArea(a, b, 0, 100e-12)
	if d <= 0 {
		t.Error("distinct traces must have positive deviation")
	}
}

// TestFacadeApplyDelay: both channel policies through the facade.
func TestFacadeApplyDelay(t *testing.T) {
	exp := ExpChannel{TauUp: 20e-12, TauDown: 20e-12, DMin: 5e-12}
	in := NewTrace(false, 100e-12, 400e-12)
	outInv := ApplyDelay(in, exp, PolicyInvolution)
	if outInv.NumEvents() != 2 {
		t.Errorf("involution output %+v", outInv.Events)
	}
	outIne := ApplyDelay(in, exp, PolicyInertial)
	if outIne.NumEvents() != 2 {
		t.Errorf("inertial output %+v", outIne.Events)
	}
}

// TestFacadeNAND: the NAND duality through the facade.
func TestFacadeNAND(t *testing.T) {
	n := NANDFromDual(TableI())
	a := NewTrace(false, 500e-12)
	b := NewTrace(false, 500e-12)
	out, err := ApplyNAND(n, a, b, 3e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Initial || out.NumEvents() != 1 {
		t.Fatalf("NAND output %+v", out.Events)
	}
}

// TestFacadeNOR3: the 3-input extension through the facade.
func TestFacadeNOR3(t *testing.T) {
	p3 := NOR3FromNOR2(TableI())
	if err := p3.Validate(); err != nil {
		t.Fatal(err)
	}
	all, err := p3.FallingDelay3(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sis, err := p3.FallingDelay3(200e-12, 400e-12)
	if err != nil {
		t.Fatal(err)
	}
	if all >= sis {
		t.Errorf("3-input MIS speed-up missing: %g vs %g", all, sis)
	}
	var g SwitchGate = p3.Gate()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeCircuit: the circuit-composition API end to end — a hybrid
// NOR channel into an inverter chain.
func TestFacadeCircuit(t *testing.T) {
	p := TableI()
	sim := NewSimulator()
	a := NewNet("a", false)
	b := NewNet("b", false)
	norOut := NewNet("nor", false)
	norOut.Record()
	if _, err := NewNORChannel(sim, p, a, b, norOut, p.Supply.VDD); err != nil {
		t.Fatal(err)
	}
	if !norOut.Value() {
		t.Fatal("NOR of (0,0) must start high")
	}
	exp := ExpChannel{TauUp: 20e-12, TauDown: 20e-12, DMin: 5e-12}
	out, err := InverterChain(sim, norOut, 2, func(i int, from, to *Net) {
		NewChannel(sim, "c", from, to, exp, PolicyInvolution)
	})
	if err != nil {
		t.Fatal(err)
	}
	out.Record()
	if err := Drive(sim, a, NewTrace(false, 500e-12)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5e-9); err != nil {
		t.Fatal(err)
	}
	norTr := norOut.Trace()
	outTr := out.Trace()
	if norTr.NumEvents() != 1 || norTr.Events[0].Value {
		t.Fatalf("NOR trace %+v", norTr.Events)
	}
	if outTr.NumEvents() != 1 {
		t.Fatalf("chain trace %+v", outTr.Events)
	}
	// Two inverters preserve polarity; total delay = NOR fall +
	// 2 * exp-channel delta(inf).
	wantFall, err := p.FallingDelay(200e-12)
	if err != nil {
		t.Fatal(err)
	}
	_ = wantFall // SIS fall for A-only transition:
	fall, err := p.FallingDelay(SISFarFacadeProbe)
	if err != nil {
		t.Fatal(err)
	}
	want := 500e-12 + fall + 2*(exp.DMin+exp.TauUp*math.Ln2)
	// The chain alternates rise/fall; the second stage delay uses
	// TauDown... compute loosely: within a few ps.
	if math.Abs(outTr.Events[0].Time-want) > 5e-12 {
		t.Errorf("chain output at %g, want ~%g", outTr.Events[0].Time, want)
	}
}

// SISFarFacadeProbe mirrors hybrid.SISFar for facade-level tests.
const SISFarFacadeProbe = 200e-12

// TestFacadeGateFns: gate function re-exports.
func TestFacadeGateFns(t *testing.T) {
	if FnInv([]bool{true}) || !FnBuf([]bool{true}) {
		t.Error("inverter/buffer wrong")
	}
	if FnNOR2([]bool{true, false}) || !FnNAND2([]bool{true, false}) {
		t.Error("nor/nand wrong")
	}
	if !FnAND2([]bool{true, true}) || !FnOR2([]bool{false, true}) || FnXOR2([]bool{true, true}) {
		t.Error("and/or/xor wrong")
	}
	g, err := NewGate("inv", FnInv, []*Net{NewNet("x", false)}, NewNet("y", false))
	if err != nil || g == nil {
		t.Fatal(err)
	}
}

// TestFacadeEvaluateSmall: the full public evaluation path at tiny
// size — a session gate job prepares the same model set the facade's
// MeasureCharacteristic and BuildModels build by hand.
func TestFacadeEvaluateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	bp := DefaultBenchParams()
	bp.MaxStep = 8e-12
	bench, err := NewBench(bp)
	if err != nil {
		t.Fatal(err)
	}
	target, err := MeasureCharacteristic(bench)
	if err != nil {
		t.Fatal(err)
	}
	models, err := BuildModels(target, bp.Supply, Ps(20))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfigs()[0]
	cfg.Transitions = 30
	res, err := NewSession(SessionOptions{Workers: 1}).Evaluate(context.Background(), GateJob{
		Params: &bp, Configs: []TraceConfig{cfg}, Seeds: []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gate[0].Normalized["inertial"] != 1 {
		t.Error("normalization broken")
	}
	if !reflect.DeepEqual(*res.Models, models) {
		t.Error("session prepared a different model set than MeasureCharacteristic + BuildModels")
	}
}

// TestFacadeEvaluateParallel: the concurrent engine through the facade —
// a 2-worker session with a golden cache must reproduce the 1-worker
// result exactly and report every unit through Progress.
func TestFacadeEvaluateParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline in -short mode")
	}
	bp := DefaultBenchParams()
	bp.MaxStep = 8e-12
	cfg := PaperConfigs()[0]
	cfg.Transitions = 30
	seeds := []int64{1, 2}
	job := GateJob{Params: &bp, Configs: []TraceConfig{cfg}, Seeds: seeds, NoCache: true}
	serial, err := NewSession(SessionOptions{Workers: 1}).Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var units int
	job.NoCache = false
	job.Progress = func(p Progress) { units = p.Completed }
	s := NewSession(SessionOptions{Workers: 2})
	par, err := s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if units != len(seeds) {
		t.Errorf("progress saw %d units, want %d", units, len(seeds))
	}
	for name, a := range serial.Gate[0].Area {
		if par.Gate[0].Area[name] != a {
			t.Errorf("Area[%s]: parallel %g != serial %g", name, par.Gate[0].Area[name], a)
		}
	}
	if st := s.GoldenCache().Stats(); st.Misses != int64(len(seeds)) || st.Entries != len(seeds) {
		t.Errorf("cache stats %+v, want %d misses/entries", st, len(seeds))
	}
}

// TestFacadeSweep: the scenario-sweep engine through the facade — a
// small grid expands in order, runs on the shared pool and encodes.
func TestFacadeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	bp := DefaultBenchParams()
	bp.MaxStep = 8e-12
	spec := SweepSpec{
		Gates:    []string{"nor2", "nand2"},
		VDDScale: []float64{1, 0.95},
		Stimuli: []SweepStimulus{
			{Mode: StimulusLocal, Mu: Ps(200), Sigma: Ps(100), Transitions: 10},
			{Mode: StimulusGlobal, Mu: Ps(200), Sigma: Ps(100), Transitions: 10},
		},
		Seeds: []int64{1},
		Bench: &bp,
	}
	scenarios, err := ExpandSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 8 {
		t.Fatalf("expanded %d scenarios, want 8", len(scenarios))
	}
	var steps int
	res, err := NewSession(SessionOptions{Workers: 2}).Evaluate(context.Background(), SweepJob{
		Spec:     spec,
		Progress: func(Progress) { steps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Sweep
	if len(rep.Scenarios) != 8 || rep.TotalUnits != 8 {
		t.Fatalf("report: %d scenarios, %d units", len(rep.Scenarios), rep.TotalUnits)
	}
	if steps == 0 {
		t.Error("no progress callbacks delivered")
	}
	for i, sc := range rep.Scenarios {
		if sc.Index != i {
			t.Errorf("scenario %d reported index %d", i, sc.Index)
		}
		if v, ok := sc.Normalized["inertial"]; !ok || float64(v) != 1 {
			t.Errorf("scenario %d: inertial normalization %v", i, v)
		}
	}
}

// TestFacadeNetlist: the circuit-level pipeline through the facade —
// parse a netlist, evaluate it as a session circuit job, and check the
// per-net report shape.
func TestFacadeNetlist(t *testing.T) {
	if testing.Short() {
		t.Skip("composed analog transients in -short mode")
	}
	nl, err := ParseNetlist(strings.NewReader(`{
	  "name": "mini",
	  "inputs": ["a", "b"],
	  "instances": [
	    {"name": "nor",  "gate": "nor2", "inputs": ["a", "b"],   "output": "y0"},
	    {"name": "inv1", "gate": "nor2", "inputs": ["y0", "y0"], "output": "y1"}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultBenchParams()
	p.MaxStep = 8e-12
	cfg := PaperConfigs()[0]
	cfg.Transitions = 8
	out, err := NewSession(SessionOptions{Workers: 2}).Evaluate(context.Background(), CircuitJob{
		Netlist: nl, Params: &p, Config: cfg, Seeds: []int64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Circuit
	if len(res.Nets) != 2 {
		t.Fatalf("recorded nets = %v, want [y0 y1]", res.Nets)
	}
	for _, model := range ModelNames() {
		if _, ok := res.TotalNormalized[model]; !ok {
			t.Errorf("missing total for model %s", model)
		}
	}
	if _, err := BuiltinNetlist("c17"); err != nil {
		t.Error(err)
	}
	if len(BuiltinNetlists()) < 2 {
		t.Errorf("builtin circuits = %v", BuiltinNetlists())
	}
}

// TestFacadeParseSweepSpec: the grid-file decoder through the facade.
func TestFacadeParseSweepSpec(t *testing.T) {
	spec, err := ParseSweepSpec(strings.NewReader(
		`{"gates": ["nor3"], "stimuli": [{"mode": "LOCAL", "mu": 1e-10, "sigma": 5e-11, "transitions": 6}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Gates) != 1 || spec.Gates[0] != "nor3" {
		t.Errorf("parsed %+v", spec)
	}
}
