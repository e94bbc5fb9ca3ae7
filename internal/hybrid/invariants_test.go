package hybrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/la"
	"hybriddelay/internal/waveform"
)

// Physical-invariant property tests: a passive RC network driven by
// sources inside the rails must keep every node voltage inside the rail
// hull at all times, and trajectories must relax monotonically in energy.

// randomParams draws a plausible random NOR parametrization.
func randomParams(rng *rand.Rand) Params {
	return Params{
		R1:     (5 + 195*rng.Float64()) * 1e3,
		R2:     (5 + 195*rng.Float64()) * 1e3,
		R3:     (5 + 195*rng.Float64()) * 1e3,
		R4:     (5 + 195*rng.Float64()) * 1e3,
		CN:     (5 + 195*rng.Float64()) * 1e-18,
		CO:     (100 + 900*rng.Float64()) * 1e-18,
		Supply: waveform.DefaultSupply(),
		DMin:   rng.Float64() * 20e-12,
	}
}

// TestTrajectoryStaysInRails: for any mode schedule and any initial
// state within [0, VDD], the trajectory never leaves [0, VDD] (the
// ideal-switch model has no coupling capacitors, so no overshoot can
// occur — this is exactly why it misses part of the Charlie effect).
func TestTrajectoryStaysInRails(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		modes := []Mode{Mode00, Mode01, Mode10, Mode11}
		var phases []Phase
		tm := 0.0
		for i := 0; i < 1+rng.Intn(6); i++ {
			phases = append(phases, Phase{Start: tm, Mode: modes[rng.Intn(4)]})
			tm += rng.Float64() * 100e-12
		}
		v0 := la.Vec2{X: rng.Float64() * 0.8, Y: rng.Float64() * 0.8}
		tr, err := p.NewTrajectory(v0, phases)
		if err != nil {
			return false
		}
		for i := 0; i <= 300; i++ {
			tt := (tm + 200e-12) * float64(i) / 300
			v := vec2(tr.At(tt))
			if v.X < -1e-9 || v.X > 0.8+1e-9 || v.Y < -1e-9 || v.Y > 0.8+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSwitchGateStaysInRails: the same invariant for random multi-node
// switch-level gates (the generalized machinery).
func TestSwitchGateStaysInRails(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 2 + rng.Intn(4)
		nInputs := 1 + rng.Intn(3)
		caps := make([]float64, nNodes)
		for i := range caps {
			caps[i] = (5 + 500*rng.Float64()) * 1e-18
		}
		var branches []SwitchBranch
		for k := 0; k < nNodes+2+rng.Intn(4); k++ {
			from := rng.Intn(nNodes)
			toChoices := []int{rng.Intn(nNodes), int(RailVDD), int(RailGND)}
			to := toChoices[rng.Intn(3)]
			if to == from {
				to = int(RailGND)
			}
			branches = append(branches, SwitchBranch{
				From: from, To: to,
				R:          (5 + 195*rng.Float64()) * 1e3,
				Input:      rng.Intn(nInputs),
				OnWhenHigh: rng.Intn(2) == 0,
			})
		}
		g := SwitchGate{
			Name:      "rand",
			NumInputs: nInputs,
			Caps:      caps,
			Branches:  branches,
			OutNode:   nNodes - 1,
			Logic:     func(in []bool) bool { return in[0] },
			Supply:    waveform.DefaultSupply(),
		}
		if err := g.Validate(); err != nil {
			return false
		}
		var phases []PhaseN
		tm := 0.0
		for i := 0; i < 1+rng.Intn(4); i++ {
			in := make([]bool, nInputs)
			for j := range in {
				in[j] = rng.Intn(2) == 0
			}
			phases = append(phases, PhaseN{Start: tm, Inputs: in})
			tm += rng.Float64() * 100e-12
		}
		v0 := make([]float64, nNodes)
		for i := range v0 {
			v0[i] = rng.Float64() * 0.8
		}
		tr, err := g.NewTrajectory(v0, phases)
		if err != nil {
			return false
		}
		for i := 0; i <= 200; i++ {
			tt := (tm + 200e-12) * float64(i) / 200
			for _, v := range tr.At(tt) {
				if v < -1e-6 || v > 0.8+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDelayPositive: every well-posed delay query returns a positive
// value not below the pure delay.
func TestDelayPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		dd := (rng.Float64()*2 - 1) * 150e-12
		d, err := p.FallingDelay(dd)
		if err != nil || d < p.DMin {
			return false
		}
		r, err := p.RisingDelayFrom(dd, rng.Float64()*0.8)
		if err != nil || r < p.DMin {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFallingBoundedByParallelAndSingle: for any parameters,
// delta_fall(0) is bounded below by the ideal parallel discharge and
// delta_fall(+-inf) by the respective single discharges — tight sanity
// bounds from the closed forms.
func TestFallingBoundedByParallelAndSingle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		d0, err := p.FallingDelay(0)
		if err != nil {
			return false
		}
		want := p.CharlieFallZero()
		if math.Abs(d0-want) > 1e-15+1e-9*want {
			return false
		}
		dm, err := p.FallingDelay(-SISFar)
		if err != nil {
			return false
		}
		return math.Abs(dm-p.CharlieFallMinusInf()) < 1e-15+1e-9*dm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestNANDDualityProperty: the duality holds for random parameter sets,
// not just Table I.
func TestNANDDualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomParams(rng)
		n := NANDFromDual(p)
		dd := (rng.Float64()*2 - 1) * 100e-12
		a, err1 := n.RisingDelay(dd)
		b, err2 := p.FallingDelay(dd)
		if err1 != nil || err2 != nil {
			return false
		}
		if a != b {
			return false
		}
		vm := rng.Float64() * 0.8
		c, err1 := n.FallingDelay(dd, vm)
		d, err2 := p.RisingDelayFrom(dd, 0.8-vm)
		if err1 != nil || err2 != nil {
			return false
		}
		return c == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
