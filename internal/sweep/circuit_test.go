package sweep_test

import (
	"context"
	"strings"
	"testing"

	"hybriddelay/internal/netlist"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

// circuitSpec crosses one gate and one circuit over the stimulus axis.
func circuitSpec(transitions int) sweep.Spec {
	return sweep.Spec{
		Gates:    []string{"nor2"},
		Circuits: []netlist.Netlist{*mustChain(2)},
		Stimuli:  testStimuli(transitions)[:1],
		Seeds:    []int64{1, 2},
		Bench:    fastBench(),
	}
}

func mustChain(stages int) *netlist.Netlist {
	nl, err := netlist.InverterChain("chain", stages)
	if err != nil {
		panic(err)
	}
	return nl
}

func TestExpandCircuitAxis(t *testing.T) {
	spec := circuitSpec(10)
	scenarios, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("expanded %d scenarios, want 2 (one gate + one circuit)", len(scenarios))
	}
	if scenarios[0].Circuit != nil || scenarios[0].Gate != "nor2" {
		t.Errorf("scenario 0 = %+v, want the gate row first", scenarios[0])
	}
	if scenarios[1].Circuit == nil || scenarios[1].Gate != "circuit:chain" {
		t.Errorf("scenario 1 = %+v, want the circuit row", scenarios[1])
	}
	if got := scenarios[1].Config.Inputs; got != 2 {
		t.Errorf("circuit stimulus inputs = %d, want the netlist's primary input count 2", got)
	}

	// Circuits-only spec: no default gate is injected.
	only := spec
	only.Gates = nil
	scenarios, err = sweep.Expand(only)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].Circuit == nil {
		t.Errorf("circuits-only spec expanded to %+v, want one circuit row", scenarios)
	}
}

func TestExpandCircuitValidation(t *testing.T) {
	bad := circuitSpec(10)
	bad.Circuits[0].Name = ""
	if _, err := sweep.Expand(bad); err == nil || !strings.Contains(err.Error(), "needs a name") {
		t.Errorf("unnamed circuit error = %v", err)
	}
	dup := circuitSpec(10)
	dup.Circuits = append(dup.Circuits, dup.Circuits[0])
	if _, err := sweep.Expand(dup); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate circuit error = %v", err)
	}
	cyc := circuitSpec(10)
	cyc.Circuits[0].Instances[1].Inputs = []string{"y2", "y2"}
	if _, err := sweep.Expand(cyc); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cyclic circuit error = %v", err)
	}
	unknown := circuitSpec(10)
	unknown.Circuits[0].Instances[0].Gate = "bogus"
	if _, err := sweep.Expand(unknown); err == nil || !strings.Contains(err.Error(), "unknown gate") {
		t.Errorf("unknown member gate error = %v", err)
	}
}

// TestRunSweepCircuitAxis runs a mixed gate + circuit grid and checks
// the circuit rows aggregate per-net scores, stay deterministic across
// worker counts (byte-identical reports, also under -race), and are
// served from the golden cache on a warm rerun.
func TestRunSweepCircuitAxis(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	spec := circuitSpec(10)
	baseline := runSweep(t, session.New(session.Options{Workers: 1}), spec)
	if len(baseline.Scenarios) != 2 {
		t.Fatalf("report has %d rows, want 2", len(baseline.Scenarios))
	}
	row := baseline.Scenarios[1]
	if row.Gate != "circuit:chain" {
		t.Fatalf("circuit row gate = %q", row.Gate)
	}
	if row.GoldenEvents == 0 {
		t.Error("circuit row saw no golden events")
	}
	if row.CacheMisses != int64(len(spec.Seeds)) || row.CacheHits != 0 {
		t.Errorf("cold circuit row cache stats = %d hits / %d misses, want 0/%d",
			row.CacheHits, row.CacheMisses, len(spec.Seeds))
	}
	for _, model := range baseline.ModelNames {
		if _, ok := row.Normalized[model]; !ok {
			t.Errorf("circuit row missing normalized entry for %s", model)
		}
	}
	want, _ := encodeReport(t, baseline)

	s := session.New(session.Options{Workers: 8})
	if got, _ := encodeReport(t, runSweep(t, s, spec)); got != want {
		t.Errorf("8-worker report differs from the 1-worker one:\n--- 8 workers ---\n%s\n--- 1 worker ---\n%s", got, want)
	}
	rerun := runSweep(t, s, spec)
	// The rerun is fully warm: scenario hit counters replace the cold
	// run's misses, so compare rows field by field instead of bytes.
	for i := range baseline.Scenarios {
		a, b := baseline.Scenarios[i], rerun.Scenarios[i]
		if a.GoldenEvents != b.GoldenEvents || a.WorstSeed != b.WorstSeed ||
			a.WorstSeedArea != b.WorstSeedArea {
			t.Errorf("row %d differs on the warm rerun: %+v vs %+v", i, a, b)
		}
		for _, model := range baseline.ModelNames {
			if a.Normalized[model] != b.Normalized[model] {
				t.Errorf("row %d: normalized[%s] %v vs %v", i, model, a.Normalized[model], b.Normalized[model])
			}
		}
	}
	if rr := rerun.Scenarios[1]; rr.CacheHits != int64(len(spec.Seeds)) || rr.CacheMisses != 0 {
		t.Errorf("warm circuit row cache stats = %d hits / %d misses, want %d/0",
			rr.CacheHits, rr.CacheMisses, len(spec.Seeds))
	}
}

// TestRunSweepCircuitSharesGatePoints: a circuit whose member gate is
// also on the gate axis reuses the measured operating point — the
// job's prepare phase reports exactly one point.
func TestRunSweepCircuitSharesGatePoints(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	prepared := 0
	_, err := session.New(session.Options{Workers: 2}).Evaluate(context.Background(), session.SweepJob{
		Spec: circuitSpec(8),
		Progress: func(p session.Progress) {
			if p.Phase == session.PhasePrepare && p.Completed == p.Total {
				prepared = p.Total
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The chain uses only nor2, which the gate axis already prepares.
	if prepared != 1 {
		t.Errorf("prepared %d operating points, want 1 (shared nor2)", prepared)
	}
}

func TestParseSpecWithCircuits(t *testing.T) {
	js := `{
	  "circuits": [{
	    "name": "mini",
	    "inputs": ["a", "b"],
	    "instances": [
	      {"name": "g", "gate": "nor2", "inputs": ["a", "b"], "output": "o"}
	    ]
	  }],
	  "stimuli": [{"mode": "LOCAL", "mu": 2e-10, "sigma": 1e-10, "transitions": 10}],
	  "seed_count": 2
	}`
	spec, err := sweep.ParseSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 1 || scenarios[0].Gate != "circuit:mini" {
		t.Errorf("scenarios = %+v, want one circuit:mini row", scenarios)
	}
}
