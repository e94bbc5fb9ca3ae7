package gate_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// The convergence budgets of the analog golden: with the step control
// tightened, no golden event may move by more than eventBudget, and no
// model's deviation area by more than areaBudget relative. Two models
// whose areas differ by more than 2·areaBudget relative therefore keep
// their Fig. 7 ranking under the tighter reference.
const (
	eventBudget = 10e-15 // s
	areaBudget  = 1e-3   // relative
)

// fixedGolden serves one precomputed golden trace.
type fixedGolden trace.Trace

func (f fixedGolden) Golden(eval.GoldenRequest) (trace.Trace, error) { return trace.Trace(f), nil }

// fixedNets serves one precomputed composed golden.
type fixedNets map[string]trace.Trace

func (f fixedNets) GoldenNets(eval.GoldenRequest) (map[string]trace.Trace, error) { return f, nil }

// tightened returns p with the local-truncation tolerance ten times
// tighter and the step cap four times smaller.
func tightened(p nor.Params) nor.Params {
	p.LTETol /= 10
	p.MaxStep /= 4
	return p
}

// eventMove requires both goldens to carry the same transition
// sequence and returns the largest per-event time difference.
func eventMove(t *testing.T, label string, want, got trace.Trace) float64 {
	t.Helper()
	if want.NumEvents() == 0 {
		t.Fatalf("%s: the golden has no events", label)
	}
	if got.Initial != want.Initial || got.NumEvents() != want.NumEvents() {
		t.Fatalf("%s: tightened golden starts %v with %d events, default %v with %d",
			label, got.Initial, got.NumEvents(), want.Initial, want.NumEvents())
	}
	worst := 0.0
	for i, e := range want.Events {
		if got.Events[i].Value != e.Value {
			t.Fatalf("%s: event %d switches to %v, default to %v", label, i, got.Events[i].Value, e.Value)
		}
		worst = math.Max(worst, math.Abs(got.Events[i].Time-e.Time))
	}
	if worst > eventBudget {
		t.Errorf("%s: an event moves by %.3g fs, over the %.3g fs budget", label, worst/1e-15, eventBudget/1e-15)
	}
	return worst
}

// areaMove checks every model's deviation area against the default and
// the tightened golden and returns the largest relative move.
func areaMove(t *testing.T, label string, want, got map[string]float64) float64 {
	t.Helper()
	worst := 0.0
	for _, model := range eval.ModelNames {
		a, b := want[model], got[model]
		if a == b {
			continue
		}
		rel := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
		if rel > areaBudget {
			t.Errorf("%s: the %s deviation area moves from %.6g to %.6g s (%.3g relative, budget %.0e)",
				label, model, a, b, rel, areaBudget)
		}
		worst = math.Max(worst, rel)
	}
	return worst
}

// TestGoldenConvergence checks that the analog golden is converged in
// its step control: with the local-truncation tolerance ten times
// tighter and the step cap four times smaller, every gate's digitized
// output on the four Fig. 7 configurations (at reduced size) keeps the
// same transition sequence, no event moves by more than eventBudget,
// and no model's deviation area against it by more than areaBudget
// relative. The composed c17 golden under sparse-fast is held to the
// same budgets on every net. Event times are where every deviation
// area and model ranking of Fig. 7 is measured, so this bounds the
// reference's own discretization error there.
func TestGoldenConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden transients in -short mode")
	}
	const (
		transitions = 60
		seed        = 1
		expDMin     = 20 * waveform.Pico
	)
	ctx := context.Background()
	def := nor.DefaultParams()
	for _, name := range []string{"nor2", "nand2", "nor3"} {
		g, ok := gate.Lookup(name)
		if !ok {
			t.Fatalf("gate %s is not registered", name)
		}
		coarse, err := g.NewBench(def)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := g.NewBench(tightened(def))
		if err != nil {
			t.Fatal(err)
		}
		meas, err := coarse.Measure()
		if err != nil {
			t.Fatal(err)
		}
		models, err := g.BuildModels(meas, def.Supply, expDMin)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range gen.PaperConfigs() {
			cfg.Inputs = g.Arity()
			cfg.Transitions = transitions
			label := name + " " + cfg.Name()
			inputs, err := gen.Traces(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			until := gen.Horizon(inputs, 600*waveform.Pico)
			want, err := coarse.Golden(inputs, until)
			if err != nil {
				t.Fatalf("%s: default golden: %v", label, err)
			}
			got, err := tight.Golden(inputs, until)
			if err != nil {
				t.Fatalf("%s: tightened golden: %v", label, err)
			}
			events := eventMove(t, label, want, got)
			wantArea, err := eval.EvaluateSeedContext(ctx, fixedGolden(want), models, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			gotArea, err := eval.EvaluateSeedContext(ctx, fixedGolden(got), models, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			areas := areaMove(t, label, wantArea.Area, gotArea.Area)
			t.Logf("%s: %d events, largest move %.3g fs, largest area move %.2g", label, want.NumEvents(), events/1e-15, areas)
		}
	}

	nl := netlist.C17("c17")
	sparse := def
	sparse.Solver = spice.SparseFast
	coarse, err := netlist.NewBench(nl, sparse)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := netlist.NewBench(nl, tightened(sparse))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := netlist.BuildModelSet(nl, sparse, expDMin)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range gen.PaperConfigs() {
		cfg.Inputs = len(nl.Inputs)
		cfg.Transitions = transitions
		inputs, err := gen.Traces(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		until := gen.Horizon(inputs, 600*waveform.Pico)
		want, err := coarse.Golden(inputs, until)
		if err != nil {
			t.Fatalf("c17 %s: default golden: %v", cfg.Name(), err)
		}
		got, err := tight.Golden(inputs, until)
		if err != nil {
			t.Fatalf("c17 %s: tightened golden: %v", cfg.Name(), err)
		}
		wantArea, err := eval.EvaluateCircuitSeedContext(ctx, fixedNets(want), nl, ms, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		gotArea, err := eval.EvaluateCircuitSeedContext(ctx, fixedNets(got), nl, ms, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range nl.Recorded() {
			label := fmt.Sprintf("c17 sparse-fast %s net %s", cfg.Name(), net)
			events := eventMove(t, label, want[net], got[net])
			areas := areaMove(t, label, wantArea.Area[net], gotArea.Area[net])
			t.Logf("%s: %d events, largest move %.3g fs, largest area move %.2g", label, want[net].NumEvents(), events/1e-15, areas)
		}
	}
}
