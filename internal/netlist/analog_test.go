package netlist

import (
	"math"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// fastParams returns the calibrated bench parameters with the coarser
// integrator step the analog test suites use.
func fastParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

// tracesFor generates small random stimuli for an n-input circuit.
func tracesFor(t *testing.T, n, transitions int, seed int64) ([]trace.Trace, float64) {
	t.Helper()
	cfg := gen.PaperConfigs()[0]
	cfg.Inputs = n
	cfg.Transitions = transitions
	inputs, err := gen.Traces(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inputs, gen.Horizon(inputs, 600*waveform.Pico)
}

// equalTraces compares two traces bit for bit.
func equalTraces(a, b trace.Trace) bool {
	if a.Initial != b.Initial || len(a.Events) != len(b.Events) {
		return false
	}
	for i, e := range a.Events {
		if math.Float64bits(e.Time) != math.Float64bits(b.Events[i].Time) || e.Value != b.Events[i].Value {
			return false
		}
	}
	return true
}

// TestSingleGateGoldenBitIdentical is the composition anchor: a
// netlist holding one instance of a gate must produce, through the
// flattened composed circuit, the exact trace the gate's own bench
// produces — same MNA variables, same device stamps, same integration
// path, bit-identical digitized events.
func TestSingleGateGoldenBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	p := fastParams()
	for _, gname := range []string{"nor2", "nand2", "nor3"} {
		g, err := gate.Find(gname)
		if err != nil {
			t.Fatal(err)
		}
		netNames := []string{"a", "b", "c"}[:g.Arity()]
		nl := &Netlist{
			Name:   "single-" + gname,
			Inputs: netNames,
			Instances: []Instance{
				{Name: "g", Gate: gname, Inputs: netNames, Output: "o"},
			},
		}
		inputs, until := tracesFor(t, g.Arity(), 3*g.Arity(), 7)

		bench, err := g.NewBench(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bench.Golden(inputs, until)
		if err != nil {
			t.Fatal(err)
		}

		cb, err := NewBench(nl, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cb.Golden(inputs, until)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumEvents() == 0 {
			t.Errorf("%s: golden trace has no events (weak test)", gname)
		}
		if !equalTraces(got["o"], want) {
			t.Errorf("%s: composed golden differs from the gate bench:\n got %+v\nwant %+v",
				gname, got["o"], want)
		}
	}
}

// TestComposedChainGolden runs a NOR feeding two inverters through the
// flattened circuit and sanity-checks the per-net digitized traces.
func TestComposedChainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	chain, err := InverterChain("chain", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBench(chain, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	inputs, until := tracesFor(t, 2, 6, 3)
	out, err := b.Golden(inputs, until)
	if err != nil {
		t.Fatal(err)
	}
	// Initial values follow the settled logic state (a=b=0).
	if !out["y0"].Initial || out["y1"].Initial || !out["y2"].Initial {
		t.Errorf("initial values y0=%v y1=%v y2=%v, want true/false/true",
			out["y0"].Initial, out["y1"].Initial, out["y2"].Initial)
	}
	// Activity at the NOR must propagate down the chain (inverters
	// cannot create activity from nothing, and a driven chain toggles).
	if out["y0"].NumEvents() == 0 {
		t.Error("NOR output never switched")
	}
	if out["y2"].NumEvents() == 0 {
		t.Error("chain output never switched")
	}
	if out["y1"].NumEvents() < out["y2"].NumEvents() {
		t.Errorf("stage activity grows down the chain: y1=%d events, y2=%d",
			out["y1"].NumEvents(), out["y2"].NumEvents())
	}
	// Clone runs independently and reproduces the same traces.
	cl, err := b.Clone()
	if err != nil {
		t.Fatal(err)
	}
	again, err := cl.Golden(inputs, until)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range chain.Recorded() {
		if !equalTraces(out[net], again[net]) {
			t.Errorf("clone diverged on net %s", net)
		}
	}
}

func TestBenchAccessors(t *testing.T) {
	nl := single()
	p := fastParams()
	b, err := NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Netlist() != nl {
		t.Error("Netlist() lost the description")
	}
	if b.Params() != p {
		t.Error("Params() changed")
	}
	if b.Circuit() == nil || b.Circuit().NumNodes() < 5 {
		t.Errorf("composed circuit too small: %v nodes", b.Circuit().NumNodes())
	}
	if rec := b.Recorded(); len(rec) != 1 || rec[0] != "o" {
		t.Errorf("Recorded() = %v, want [o]", rec)
	}
}

func TestBuildModelSet(t *testing.T) {
	if testing.Short() {
		t.Skip("gate measurement in -short mode")
	}
	chain, err := InverterChain("chain", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three nor2 instances -> one measured model set entry.
	ms, err := BuildModelSet(chain, fastParams(), 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("model set has %d entries, want 1 (deduped nor2)", len(ms))
	}
	m, err := ms.For(chain.Instances[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Gate.Name() != "nor2" {
		t.Errorf("models built for %q", m.Gate.Name())
	}
	if err := m.Inertial.Validate(); err != nil {
		t.Errorf("measured inertial arcs invalid: %v", err)
	}
	if m.Exp.TauUp <= 0 || m.Exp.TauDown <= 0 {
		t.Errorf("measured exp channel invalid: %+v", m.Exp)
	}
}

func TestBenchValidation(t *testing.T) {
	nl := single()
	bad := fastParams()
	bad.CO = 0
	if _, err := NewBench(nl, bad); err == nil {
		t.Error("invalid params accepted")
	}
	nl.Instances[0].Gate = "bogus"
	if _, err := NewBench(nl, fastParams()); err == nil {
		t.Error("invalid netlist accepted")
	}
	b, err := NewBench(single(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Golden([]trace.Trace{{}}, 1e-9); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := b.Golden([]trace.Trace{{Initial: true}, {}}, 1e-9); err == nil {
		t.Error("high initial input accepted")
	}
}
