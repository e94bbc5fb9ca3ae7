package session

import (
	"context"
	"strings"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/nor"
)

// TestPlanExpDMin: zero selects DefaultExpDMin, so planning with 0 and
// with the default shares one prepared operating point, while a
// positive override prepares its own point and reaches the exp channel
// unchanged.
func TestPlanExpDMin(t *testing.T) {
	s := New(Options{Workers: 2})
	targets := []target{{Gate: "nor2", Params: fastParams()}}
	plan := func(expDMin float64, wantMisses int64) eval.Block {
		t.Helper()
		blocks, _, err := s.plan(context.Background(), targets, expDMin, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ParamCache().Stats().Misses; got != wantMisses {
			t.Errorf("expDMin %g: %d param-cache misses, want %d", expDMin, got, wantMisses)
		}
		return blocks[0]
	}
	if got := plan(0, 1).Models.Exp.DMin; got != DefaultExpDMin {
		t.Errorf("expDMin 0: exp channel DMin %g, want DefaultExpDMin %g", got, DefaultExpDMin)
	}
	plan(DefaultExpDMin, 1)
	if got := plan(5e-12, 2).Models.Exp.DMin; got != 5e-12 {
		t.Errorf("expDMin 5e-12: exp channel DMin %g, want 5e-12", got)
	}
}

// TestPlanPrepareErrorLabel: a failed operating point carries the Label
// of the first target that uses it, and a plain message without one.
func TestPlanPrepareErrorLabel(t *testing.T) {
	bad := nor.Params{} // zero-value params: invalid supply
	for _, tc := range []struct{ label, prefix string }{
		{"sweep: scenario 0 (nor2)", "sweep: scenario 0 (nor2): operating point nor2 "},
		{"", "operating point nor2 "},
	} {
		targets := []target{{Gate: "nor2", Params: bad, Label: tc.label}}
		_, _, err := New(Options{Workers: 1}).plan(context.Background(), targets, 0, nil, nil)
		if err == nil || !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("label %q: error %v, want prefix %q", tc.label, err, tc.prefix)
		}
	}
}
