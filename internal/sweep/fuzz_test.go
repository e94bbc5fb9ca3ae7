package sweep

// Fuzz target for the grid-spec decoder, which reads -grid files and
// served sweep jobs: no input may panic, and a spec it accepts, capped
// as the server caps wire specs, either expands into exactly its grid
// or returns an error.

import (
	"bytes"
	"testing"
)

// The server's wire-input bounds (internal/serve), repeated here so the
// fuzzer spends its time on specs a served job could carry.
const (
	fuzzMaxSeedCount   = 1 << 12
	fuzzMaxTransitions = 1 << 14
	fuzzMaxStimuli     = 64
	fuzzMaxInstances   = 1024
	fuzzMaxSweepUnits  = 1 << 16
)

// withinServeCaps reports whether spec stays inside the server's
// bounds, reading the axes as Expand and SeedList do.
func withinServeCaps(spec Spec) bool {
	if spec.SeedCount > fuzzMaxSeedCount || len(spec.Stimuli) > fuzzMaxStimuli {
		return false
	}
	for _, st := range spec.Stimuli {
		if st.Transitions > fuzzMaxTransitions {
			return false
		}
	}
	for _, nl := range spec.Circuits {
		if len(nl.Instances) > fuzzMaxInstances {
			return false
		}
	}
	seeds := len(spec.Seeds)
	if seeds == 0 {
		seeds = spec.SeedCount
	}
	units := 1
	for _, n := range []int{len(spec.Gates) + len(spec.Circuits), len(spec.VDDScale), len(spec.LoadScale), len(spec.Stimuli), seeds} {
		n = max(n, 1)
		if units > fuzzMaxSweepUnits/n {
			return false
		}
		units *= n
	}
	return true
}

func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		`{"gates":["nor2","nand2"],"vdd_scale":[1,0.9],"load_scale":[1,2],"stimuli":[{"mode":"LOCAL","mu":2e-10,"sigma":1e-10,"transitions":8}],"seed_count":3}`,
		`{"circuits":[{"name":"c","inputs":["a","b"],"instances":[{"name":"g","gate":"nor2","inputs":["a","b"],"output":"o"}]}],"stimuli":[{"mode":"GLOBAL","mu":1e-10,"sigma":0,"transitions":2}],"seeds":[5,6]}`,
		`{"gates":["nor3"],"stimuli":[{"mode":"LOCAL","mu":1e-10,"sigma":5e-11,"transitions":4,"start":1e-10,"min_gap":1e-12}],"base_seed":-7,"exp_dmin":2e-11}`,
		`{"gates":["nor2","nor2"],"stimuli":[{"mode":"LOCAL","mu":1e-10,"sigma":0,"transitions":1}]}`,
		`{"vdd_scale":[0,-1],"stimuli":[{"mode":"LOCAL","mu":1e-10,"sigma":0,"transitions":1}]}`,
		`{"stimuli":[]}`,
		`{"bogus":1}`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := ParseSpec(bytes.NewReader(raw))
		if err != nil || !withinServeCaps(spec) {
			return
		}
		scenarios, err := Expand(spec)
		if err != nil {
			return
		}
		points := len(spec.Gates) + len(spec.Circuits)
		if points == 0 {
			points = 1 // the default gate
		}
		want := points * max(len(spec.VDDScale), 1) * max(len(spec.LoadScale), 1) * len(spec.Stimuli)
		if len(scenarios) != want {
			t.Fatalf("expanded %d scenarios, want %d", len(scenarios), want)
		}
		for i, sc := range scenarios {
			if sc.Index != i {
				t.Fatalf("scenario %d has index %d", i, sc.Index)
			}
		}
		if len(spec.SeedList()) == 0 {
			t.Fatal("accepted spec evaluates no seeds")
		}
	})
}
