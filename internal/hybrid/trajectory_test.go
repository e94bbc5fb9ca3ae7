package hybrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
)

// rk4 integrates V' = A V + g numerically from v0 over [0, T] in n
// steps: the reference the closed-form trajectories are checked against.
func rk4(s ode.Linear2, v0 la.Vec2, T float64, n int) la.Vec2 {
	h := T / float64(n)
	f := func(v la.Vec2) la.Vec2 { return s.A.MulVec(v).Add(s.G) }
	v := v0
	for i := 0; i < n; i++ {
		k1 := f(v)
		k2 := f(v.Add(k1.Scale(h / 2)))
		k3 := f(v.Add(k2.Scale(h / 2)))
		k4 := f(v.Add(k3.Scale(h)))
		v = v.Add(k1.Add(k2.Scale(2)).Add(k3.Scale(2)).Add(k4).Scale(h / 6))
	}
	return v
}

func TestTrajectoryValidation(t *testing.T) {
	p := TableI()
	if _, err := p.NewTrajectory(la.Vec2{}, nil); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := p.NewTrajectory(la.Vec2{}, []Phase{
		{Start: 10e-12, Mode: Mode00}, {Start: 5e-12, Mode: Mode11},
	}); err == nil {
		t.Error("unsorted schedule accepted")
	}
	bad := p
	bad.R1 = -1
	if _, err := bad.NewTrajectory(la.Vec2{}, []Phase{{Mode: Mode00}}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestTrajectoryContinuity: the state is continuous across mode
// switches — the defining property of the hybrid model.
func TestTrajectoryContinuity(t *testing.T) {
	p := TableI()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		modes := []Mode{Mode00, Mode01, Mode10, Mode11}
		var phases []Phase
		tm := 0.0
		for i := 0; i < 2+rng.Intn(5); i++ {
			phases = append(phases, Phase{Start: tm, Mode: modes[rng.Intn(4)]})
			tm += (5 + rng.Float64()*60) * 1e-12
		}
		v0 := la.Vec2{X: rng.Float64() * 0.8, Y: rng.Float64() * 0.8}
		tr, err := p.NewTrajectory(v0, phases)
		if err != nil {
			return false
		}
		for _, ph := range phases[1:] {
			eps := 1e-18
			before := vec2(tr.At(ph.Start - eps))
			after := vec2(tr.At(ph.Start + eps))
			if before.Sub(after).Norm() > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTrajectoryMatchesRK4: piecewise analytic solution equals numeric
// integration of the same switched system.
func TestTrajectoryMatchesRK4(t *testing.T) {
	p := TableI()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		modes := []Mode{Mode00, Mode01, Mode10, Mode11}
		var phases []Phase
		tm := 0.0
		for i := 0; i < 3; i++ {
			phases = append(phases, Phase{Start: tm, Mode: modes[rng.Intn(4)]})
			tm += (10 + rng.Float64()*40) * 1e-12
		}
		v0 := la.Vec2{X: rng.Float64() * 0.8, Y: rng.Float64() * 0.8}
		tr, err := p.NewTrajectory(v0, phases)
		if err != nil {
			t.Fatal(err)
		}
		// Numeric reference: RK4 through each phase.
		state := v0
		for i, ph := range phases {
			end := tm + 50e-12
			if i+1 < len(phases) {
				end = phases[i+1].Start
			}
			state = rk4(p.System(ph.Mode), state, end-ph.Start, 6000)
		}
		got := vec2(tr.At(tm + 50e-12))
		if got.Sub(state).Norm() > 1e-4 {
			t.Fatalf("trial %d: analytic %v vs RK4 %v", trial, got, state)
		}
	}
}

// vec2 reads a two-node state (V_N, V_O) off Trajectory.At.
func vec2(v []float64) la.Vec2 { return la.Vec2{X: v[0], Y: v[1]} }

func TestTrajectoryAccessors(t *testing.T) {
	p := TableI()
	tr, err := p.NewTrajectory(la.Vec2{X: 0.8, Y: 0.8}, []Phase{
		{Start: 0, Mode: Mode10},
		{Start: 30e-12, Mode: Mode11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.segs[0].start != 0 {
		t.Error("start wrong")
	}
	if tr.segs[tr.seg(10e-12)].mode != Mode10 || tr.segs[tr.seg(40e-12)].mode != Mode11 {
		t.Error("active mode wrong")
	}
	if got := tr.At(0)[1]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("V_O(0) = %g", got)
	}
	if got := tr.At(0)[0]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("V_N(0) = %g", got)
	}
	// Before the first phase the state clamps to the initial value.
	if got := tr.At(-5e-12)[1]; math.Abs(got-0.8) > 1e-12 {
		t.Errorf("V_O before start = %g", got)
	}
	times, vn, vo := tr.Sample(0, 100e-12, 50)
	if len(times) != 51 || len(vn) != 51 || len(vo) != 51 {
		t.Error("Sample sizes wrong")
	}
}

// TestFig4TrajectoryShapes reproduces the qualitative content of paper
// Fig. 4: the output discharge of system (1,1) is much steeper than that
// of (1,0) and (0,1); system (0,0) charges both nodes to VDD; (1,1)
// freezes V_N.
func TestFig4TrajectoryShapes(t *testing.T) {
	p := TableI()
	vdd := p.Supply.VDD

	solve := func(m Mode, v0 la.Vec2) *Trajectory {
		tr, err := p.NewTrajectory(v0, []Phase{{Start: 0, Mode: m}})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Initial values as in Fig. 4.
	tr11 := solve(Mode11, la.Vec2{X: vdd / 2, Y: vdd})
	tr10 := solve(Mode10, la.Vec2{X: vdd, Y: vdd})
	tr01 := solve(Mode01, la.Vec2{X: vdd, Y: vdd})
	tr00 := solve(Mode00, la.Vec2{X: 0, Y: 0})

	at := 20e-12
	// (1,1) discharges the output fastest (parallel paths).
	if !(tr11.At(at)[1] < tr10.At(at)[1] && tr11.At(at)[1] < tr01.At(at)[1]) {
		t.Errorf("(1,1) not steepest: %g vs %g, %g", tr11.At(at)[1], tr10.At(at)[1], tr01.At(at)[1])
	}
	// (1,1) keeps V_N frozen.
	if math.Abs(tr11.At(100e-12)[0]-vdd/2) > 1e-12 {
		t.Error("(1,1) changed V_N")
	}
	// (0,0) charges both nodes toward VDD, V_N leading V_O.
	if !(tr00.At(at)[0] > tr00.At(at)[1]) {
		t.Errorf("(0,0): V_N (%g) should lead V_O (%g)", tr00.At(at)[0], tr00.At(at)[1])
	}
	if tr00.At(500e-12)[1] < 0.99*vdd {
		t.Error("(0,0) did not charge the output")
	}
	// (0,1) recharges N to VDD while draining O.
	if tr01.At(500e-12)[0] < 0.99*vdd || tr01.At(500e-12)[1] > 0.01*vdd {
		t.Error("(0,1) end state wrong")
	}
	// (1,0) drains both nodes (N follows O through R2).
	if tr10.At(1e-9)[0] > 0.01*vdd || tr10.At(1e-9)[1] > 0.01*vdd {
		t.Error("(1,0) end state wrong")
	}
}

func TestFirstOutputCrossing(t *testing.T) {
	p := TableI()
	vdd := p.Supply.VDD
	// Pure (1,1) discharge from VDD crosses Vth at ln2 * CO*(R3||R4).
	tr, err := p.NewTrajectory(la.Vec2{X: vdd, Y: vdd}, []Phase{{Start: 0, Mode: Mode11}})
	if err != nil {
		t.Fatal(err)
	}
	tc, ok := tr.FirstOutputCrossing(p.Supply.Vth, false, 0)
	if !ok {
		t.Fatal("no crossing")
	}
	want := math.Ln2 * p.CO * (p.R3 * p.R4 / (p.R3 + p.R4))
	if math.Abs(tc-want) > 1e-15+1e-9*want {
		t.Errorf("crossing at %g, want %g", tc, want)
	}
	// No rising crossing exists on a pure discharge.
	if _, ok := tr.FirstOutputCrossing(p.Supply.Vth, true, 0); ok {
		t.Error("found impossible rising crossing")
	}
	// Crossing strictly after `after`.
	if _, ok := tr.FirstOutputCrossing(p.Supply.Vth, false, want+1e-12); ok {
		t.Error("crossing search ignored the after parameter")
	}
}

// TestCrossingMonotoneInLevel: lower thresholds are crossed later on a
// falling trajectory.
func TestCrossingMonotoneInLevel(t *testing.T) {
	p := TableI()
	vdd := p.Supply.VDD
	tr, err := p.NewTrajectory(la.Vec2{X: vdd, Y: vdd}, []Phase{{Start: 0, Mode: Mode10}})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for level := 0.7 * vdd; level > 0.1*vdd; level -= 0.05 * vdd {
		tc, ok := tr.FirstOutputCrossing(level, false, 0)
		if !ok {
			t.Fatalf("no crossing for level %g", level)
		}
		if tc <= prev {
			t.Fatalf("crossing times not monotone in level at %g", level)
		}
		prev = tc
	}
}
