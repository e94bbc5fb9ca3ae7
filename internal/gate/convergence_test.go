package gate

import (
	"math"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// TestGoldenConvergence checks that the analog golden is converged in
// its step control: with the local-truncation tolerance ten times
// tighter and the step cap four times smaller, every gate's digitized
// output on the four Fig. 7 configurations (at reduced size) keeps the
// same transition sequence, and no event moves by more than 10 fs.
// Event times are where every deviation area and model ranking of
// Fig. 7 is measured, so this bounds the reference's own
// discretization error there.
func TestGoldenConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden transients in -short mode")
	}
	const (
		transitions = 60
		seed        = 1
		budget      = 10e-15 // s
	)
	def := nor.DefaultParams()
	fine := def
	fine.LTETol /= 10
	fine.MaxStep /= 4
	for _, name := range []string{"nor2", "nand2", "nor3"} {
		g, ok := Lookup(name)
		if !ok {
			t.Fatalf("gate %s is not registered", name)
		}
		coarse, err := g.NewBench(def)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := g.NewBench(fine)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range gen.PaperConfigs() {
			cfg.Inputs = g.Arity()
			cfg.Transitions = transitions
			inputs, err := gen.Traces(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			until := gen.Horizon(inputs, 600*waveform.Pico)
			want, err := coarse.Golden(inputs, until)
			if err != nil {
				t.Fatalf("%s %s: default golden: %v", name, cfg.Name(), err)
			}
			got, err := tight.Golden(inputs, until)
			if err != nil {
				t.Fatalf("%s %s: tightened golden: %v", name, cfg.Name(), err)
			}
			if want.NumEvents() == 0 {
				t.Fatalf("%s %s: the golden has no output events", name, cfg.Name())
			}
			if got.Initial != want.Initial || got.NumEvents() != want.NumEvents() {
				t.Fatalf("%s %s: tightened golden starts %v with %d events, default %v with %d",
					name, cfg.Name(), got.Initial, got.NumEvents(), want.Initial, want.NumEvents())
			}
			worst := 0.0
			for i, e := range want.Events {
				if got.Events[i].Value != e.Value {
					t.Fatalf("%s %s: event %d switches to %v, default to %v", name, cfg.Name(), i, got.Events[i].Value, e.Value)
				}
				worst = math.Max(worst, math.Abs(got.Events[i].Time-e.Time))
			}
			if worst > budget {
				t.Errorf("%s %s: an output event moves by %.3g fs, over the %.3g fs budget",
					name, cfg.Name(), worst/1e-15, budget/1e-15)
			}
			t.Logf("%s %s: %d events, largest move %.3g fs", name, cfg.Name(), want.NumEvents(), worst/1e-15)
		}
	}
}
