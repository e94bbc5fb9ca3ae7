package serve

import (
	"strings"
	"testing"

	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

// TestJobSpecExplicitSeedBound: an explicit seed list is held to the
// same bound as seed_count on gate, circuit and sweep specs, so a
// request cannot size the evaluation's per-unit slots past it.
func TestJobSpecExplicitSeedBound(t *testing.T) {
	seeds := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	stim := []sweep.Stimulus{testStimulus(1)}
	specs := func(n int) map[string]JobSpec {
		return map[string]JobSpec{
			"gate":    {Kind: session.KindGate, Gate: "nor2", Stimuli: stim, Seeds: seeds(n)},
			"circuit": {Kind: session.KindCircuit, Circuit: "c17", Stimuli: stim, Seeds: seeds(n)},
			"sweep":   {Kind: session.KindSweep, Sweep: &sweep.Spec{Stimuli: stim, Seeds: seeds(n)}},
		}
	}
	for name, spec := range specs(maxSeedCount + 1) {
		if _, err := spec.Job(); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s with %d explicit seeds: error %v, want one naming the limit", name, maxSeedCount+1, err)
		}
	}
	for name, spec := range specs(maxSeedCount) {
		if _, err := spec.Job(); err != nil {
			t.Errorf("%s with %d explicit seeds: %v", name, maxSeedCount, err)
		}
	}
}
