package serve

// Fuzz target for the serve trust boundary: arbitrary request bodies
// go through the submit handler's decoding and JobSpec.Job. No input
// may panic, and every accepted spec stays within the wire-input
// bounds, so no single request can make the server allocate past them.

import (
	"bytes"
	"encoding/json"
	"testing"

	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

func FuzzJobSpec(f *testing.F) {
	for _, s := range []string{
		`{"kind":"gate","gate":"nor2","stimuli":[{"mode":"LOCAL","mu":2e-10,"sigma":1e-10,"transitions":20}],"seeds":[1,2]}`,
		`{"kind":"gate","stimuli":[{"mode":"GLOBAL","mu":2e-10,"sigma":1e-10,"transitions":16385}],"seed_count":4096}`,
		`{"kind":"circuit","circuit":"c17","stimuli":[{"mode":"LOCAL","mu":2e-10,"sigma":1e-10,"transitions":20}]}`,
		`{"kind":"circuit","netlist":{"name":"n","inputs":["a","b"],"instances":[{"name":"g","gate":"nor2","inputs":["a","b"],"output":"o"}]},"stimuli":[{"mode":"LOCAL","mu":2e-10,"sigma":1e-10,"transitions":4}]}`,
		`{"kind":"sweep","sweep":{"gates":["nor2","nand2"],"vdd_scale":[1,0.9],"load_scale":[1,2],"stimuli":[{"mode":"LOCAL","mu":2e-10,"sigma":1e-10,"transitions":8}],"seed_count":3}}`,
		`{"kind":"sweep","sweep":{"circuits":[{"name":"c","inputs":["a","b"],"instances":[{"name":"g","gate":"nor2","inputs":["a","b"],"output":"o"}]}],"stimuli":[{"mode":"LOCAL","mu":1e-10,"sigma":0,"transitions":2}],"seeds":[5,6]}}`,
		`{"kind":"sweep","sweep":{"stimuli":[]}}`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		job, err := spec.Job()
		if err != nil {
			return
		}
		stimuliWithin := func(n int) {
			if n > maxStimuli {
				t.Fatalf("accepted %d stimuli (limit %d)", n, maxStimuli)
			}
		}
		switch j := job.(type) {
		case session.GateJob:
			stimuliWithin(len(j.Configs))
			for _, c := range j.Configs {
				if c.Transitions > maxTransitions {
					t.Fatalf("accepted %d transitions (limit %d)", c.Transitions, maxTransitions)
				}
			}
			if len(j.Seeds) > maxSeedCount {
				t.Fatalf("accepted %d seeds (limit %d)", len(j.Seeds), maxSeedCount)
			}
		case session.CircuitJob:
			if n := len(j.Netlist.Instances); n > maxInstances {
				t.Fatalf("accepted %d instances (limit %d)", n, maxInstances)
			}
			if j.Config.Transitions > maxTransitions {
				t.Fatalf("accepted %d transitions (limit %d)", j.Config.Transitions, maxTransitions)
			}
			if len(j.Seeds) > maxSeedCount {
				t.Fatalf("accepted %d seeds (limit %d)", len(j.Seeds), maxSeedCount)
			}
		case session.SweepJob:
			stimuliWithin(len(j.Spec.Stimuli))
			scenarios, err := sweep.Expand(j.Spec)
			if err != nil {
				t.Fatalf("accepted a sweep Expand rejects: %v", err)
			}
			if units := len(scenarios) * len(j.Spec.SeedList()); units > maxSweepUnits {
				t.Fatalf("accepted %d sweep units (limit %d)", units, maxSweepUnits)
			}
			for _, sc := range scenarios {
				if sc.Stimulus.Transitions > maxTransitions {
					t.Fatalf("accepted %d transitions (limit %d)", sc.Stimulus.Transitions, maxTransitions)
				}
				if sc.Circuit != nil && len(sc.Circuit.Instances) > maxInstances {
					t.Fatalf("accepted %d instances (limit %d)", len(sc.Circuit.Instances), maxInstances)
				}
			}
		default:
			t.Fatalf("Job returned %T", job)
		}
	})
}
