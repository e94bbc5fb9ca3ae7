package hybrid

import (
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
	"hybriddelay/internal/roots"
)

// scanCrossing is the plain scan that defines firstDirectionalCrossing's
// answer: g = f - level at every point of the crossScanDensity-cell grid,
// the first cell that changes sign in the requested direction polished by
// Brent. The bound-pruned search must agree with it bit for bit.
func scanCrossing(f func(float64) float64, level float64, rising bool, t0, t1 float64) (float64, bool) {
	if t1 <= t0 {
		return 0, false
	}
	g := func(t float64) float64 { return f(t) - level }
	prevT := t0
	prevV := g(t0)
	for i := 1; i <= crossScanDensity; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(crossScanDensity)
		v := g(t)
		crossed := (prevV < 0 && v >= 0 && rising) || (prevV > 0 && v <= 0 && !rising)
		if crossed {
			if v == 0 {
				return t, true
			}
			r, err := roots.Brent(g, prevT, t, 0)
			if err != nil {
				return 0, false
			}
			return r, true
		}
		prevT, prevV = t, v
	}
	return 0, false
}

// value evaluates the curve at time t through the solutions' own
// evaluators, which compute their exponentials themselves.
func (c *curve) value(t float64) float64 {
	if c.sol2 != nil {
		return c.sol2.At(t - c.start).Y
	}
	return c.solN.Component(c.node, t-c.start)
}

// gridPoint is grid point j of the window [t0, t1], as both searches
// compute it.
func gridPoint(t0, t1 float64, j int) float64 {
	return t0 + float64((t1-t0)*float64(j)/float64(crossScanDensity))
}

// sameCrossing asserts that the search and the reference scan agree
// exactly (ok and the bits of t) and returns their answer.
func sameCrossing(t *testing.T, what string, c curve, level float64, rising bool, t0, t1 float64) (float64, bool) {
	t.Helper()
	want, wantOK := scanCrossing(c.value, level, rising, t0, t1)
	got, gotOK := firstDirectionalCrossing(c, level, rising, t0, t1)
	if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: level=%.17g rising=%v window=[%.17g, %.17g]: search (%.17g, %v), scan (%.17g, %v)",
			what, level, rising, t0, t1, got, gotOK, want, wantOK)
	}
	return want, wantOK
}

// randomNAND draws a plausible random NAND parametrization (pMOS
// pull-ups weaker than the nMOS stack, the mirror of randomParams).
func randomNAND(rng *rand.Rand) NANDParams {
	p := randomParams(rng)
	return NANDParams{
		RPA: (20 + 280*rng.Float64()) * 1e3,
		RPB: (20 + 280*rng.Float64()) * 1e3,
		RNB: (5 + 95*rng.Float64()) * 1e3,
		RNA: (5 + 95*rng.Float64()) * 1e3,
		CM:  p.CN, CO: p.CO,
		Supply: p.Supply,
		DMin:   p.DMin,
	}
}

// randomNOR3 draws a 3-input NOR around a random 2-input one.
func randomNOR3(rng *rand.Rand) NOR3Params {
	p := NOR3FromNOR2(randomParams(rng))
	p.RP3 *= 0.5 + rng.Float64()
	p.RN3 *= 0.5 + rng.Float64()
	p.CN2 *= 0.5 + rng.Float64()
	return p
}

// crossingCurve is one random segment: its curve, the threshold level
// of its gate, and its slowest time constant.
type crossingCurve struct {
	name  string
	c     curve
	level float64
	tau   float64
}

// randomCurve draws a segment of kind k (0 NOR2, 1 NAND dual, 2 NOR3
// switch gate) from a random mode and state; state supplies the node
// voltages (the rest is random).
func randomCurve(t *testing.T, rng *rand.Rand, k int, state []float64) crossingCurve {
	t.Helper()
	for len(state) < 3 {
		state = append(state, -0.1+1.0*rng.Float64())
	}
	start := 1e-9 * rng.Float64()
	withTau := func(cc crossingCurve, tau float64) crossingCurve {
		if math.IsInf(tau, 1) {
			tau = 1e-9
		}
		cc.tau = tau
		return cc
	}
	switch k % 3 {
	case 0, 1:
		p := randomParams(rng)
		name, level := "nor2", p.Supply.Vth
		if k%3 == 1 {
			n := randomNAND(rng)
			p, name, level = n.Dual(), "nand2-dual", n.Supply.VDD-n.Supply.Vth
		}
		mode := Mode(rng.Intn(4))
		sol, err := p.System(mode).Solve(la.Vec2{X: state[0], Y: state[1]})
		if err != nil {
			t.Fatal(err)
		}
		return withTau(crossingCurve{name: name + "/" + mode.String(), c: curve{sol2: &sol, start: start}, level: level},
			sol.SlowestTimeConstant())
	default:
		g := randomNOR3(rng).Gate()
		in := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		sys, err := g.System(in)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := sys.Solve(state[:3])
		if err != nil {
			t.Fatal(err)
		}
		return withTau(crossingCurve{name: "nor3", c: curve{solN: sol, node: g.OutNode, start: start}, level: g.Supply.Vth},
			sol.SlowestTimeConstant())
	}
}

// TestSearchMatchesScan is the differential property test: the pruned
// search returns exactly the scan's answer over random segments and
// over the cases below that random draws reach only by chance.
func TestSearchMatchesScan(t *testing.T) {
	if crossScanDensity>>(expSlots-3) > scanCells {
		t.Fatalf("expSlots %d holds too few bisection levels for %d cells", expSlots, crossScanDensity)
	}
	t.Run("random", searchRandom)
	t.Run("edge-windows", searchEdgeWindows)
	t.Run("shared-prepared", searchSharedPrepared)
	t.Run("many-nodes", searchManyNodes)
}

// searchRandom: random NOR2, NAND-dual and NOR3 segments, states,
// windows, levels and both directions.
func searchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	crossings := 0
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		cc := randomCurve(t, rng, trial, nil)
		start := cc.c.start
		t0 := start
		if rng.Intn(3) > 0 {
			t0 += 3 * cc.tau * rng.Float64()
		}
		t1 := t0 + 60*cc.tau*rng.Float64()
		level := cc.level
		if rng.Intn(4) == 0 {
			level = 0.8 * rng.Float64()
		}
		for _, rising := range []bool{false, true} {
			if tc, ok := sameCrossing(t, cc.name, cc.c, level, rising, t0, t1); ok {
				crossings++
				// The post-fire search starts exactly at the crossing.
				sameCrossing(t, cc.name+"/at-crossing", cc.c, level, rising, tc, t1)
				sameCrossing(t, cc.name+"/at-crossing", cc.c, level, !rising, tc, t1)
				sameCrossing(t, cc.name+"/after-crossing", cc.c, level, !rising, math.Nextafter(tc, t1), t1)
			}
			// A level equal to a grid value makes g exactly zero there.
			j := 1 + rng.Intn(crossScanDensity)
			onGrid := cc.c.value(gridPoint(t0, t1, j))
			if _, ok := sameCrossing(t, cc.name+"/on-grid", cc.c, onGrid, rising, t0, t1); ok {
				crossings++
			}
		}
	}
	if crossings < trials/2 {
		t.Fatalf("only %d of %d searches crossed; the property test lost its teeth", crossings, 4*trials)
	}
}

// searchEdgeWindows: a window starting at the segment start (local time
// 0, whose exponentials are exactly 1), and a crossing in the first cell
// after a dropped range, where the cell's left value is recomputed from
// the exponentials the range handed down.
func searchEdgeWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	crossings := 0
	const trials = 600
	for trial := 0; trial < trials; trial++ {
		cc := randomCurve(t, rng, trial, nil)
		t0 := cc.c.start
		t1 := t0 + 60*cc.tau*(0.05+rng.Float64())
		for _, rising := range []bool{false, true} {
			sameCrossing(t, cc.name+"/local-0", cc.c, cc.level, rising, t0, t1)
			// Cells 9, 17, ... open the scan that follows a dropped
			// range of 8, 16, ... cells when the curve is monotone there.
			for _, j := range []int{9, 17, 33, 65, 129, 193} {
				level := 0.5 * (cc.c.value(gridPoint(t0, t1, j-1)) + cc.c.value(gridPoint(t0, t1, j)))
				if _, ok := sameCrossing(t, cc.name+"/after-drop", cc.c, level, rising, t0, t1); ok {
					crossings++
				}
			}
		}
	}
	if crossings < trials {
		t.Fatalf("only %d after-drop searches crossed", crossings)
	}
}

// searchSharedPrepared: NOR2 and NOR3 solutions that share
// one prepared system per input state, as a Channel's and a
// SwitchGate Trajectory's segments do, each search exactly like the scan and
// like a solution of their own freshly solved system.
func searchSharedPrepared(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 40; trial++ {
		p := randomParams(rng)
		g := NOR3FromNOR2(p).Gate()
		for m := 0; m < 8; m++ {
			in := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
			sysN, err := g.System(in)
			if err != nil {
				t.Fatal(err)
			}
			preN, err := sysN.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			sys2 := p.System(Mode(m % 4))
			pre2, err := sys2.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			// Three states per system, all solved before any is searched,
			// each searched over the shared prepared system and over a
			// freshly solved one.
			var pairs [][2]curve
			for k := 0; k < 3; k++ {
				v := []float64{0.8 * rng.Float64(), 0.8 * rng.Float64(), 0.8 * rng.Float64()}
				solN, err := preN.Solve(v)
				if err != nil {
					t.Fatal(err)
				}
				ownN, err := sysN.Solve(v)
				if err != nil {
					t.Fatal(err)
				}
				sol2 := pre2.Solve(la.Vec2{X: v[0], Y: v[1]})
				own2, err := sys2.Solve(la.Vec2{X: v[0], Y: v[1]})
				if err != nil {
					t.Fatal(err)
				}
				start := 1e-9 * rng.Float64()
				pairs = append(pairs,
					[2]curve{{solN: solN, node: g.OutNode, start: start}, {solN: ownN, node: g.OutNode, start: start}},
					[2]curve{{sol2: &sol2, start: start}, {sol2: &own2, start: start}})
			}
			for _, pair := range pairs {
				t0 := pair[0].start
				t1 := t0 + 60e-12*(1+100*rng.Float64())
				for _, rising := range []bool{false, true} {
					got, ok := sameCrossing(t, "shared", pair[0], p.Supply.Vth, rising, t0, t1)
					if want, wantOK := firstDirectionalCrossing(pair[1], p.Supply.Vth, rising, t0, t1); ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("inputs %v: shared system (%.17g, %v), own system (%.17g, %v)", in, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// searchManyNodes: a six-node RC ladder has more modal exponentials
// than the search's stack buffer holds, so its slots come from the
// heap; the result is still the scan's.
func searchManyNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n = 6
	supply := TableI().Supply
	g := SwitchGate{Name: "ladder", NumInputs: 1, Caps: make([]float64, n), OutNode: n - 1,
		Logic: func(in []bool) bool { return !in[0] }, Supply: supply}
	for i := range g.Caps {
		g.Caps[i] = (0.5 + rng.Float64()) * 1e-15
		from := int(RailVDD)
		if i > 0 {
			from = i - 1
		}
		g.Branches = append(g.Branches, SwitchBranch{From: from, To: i, R: (5 + 20*rng.Float64()) * 1e3})
	}
	g.Branches = append(g.Branches, SwitchBranch{From: n - 1, To: int(RailGND), R: 10e3, OnWhenHigh: true})
	for _, high := range []bool{false, true} {
		sys, err := g.System([]bool{high})
		if err != nil {
			t.Fatal(err)
		}
		v0 := make([]float64, n)
		for i := range v0 {
			if high {
				v0[i] = supply.VDD * (0.9 + 0.1*rng.Float64())
			}
		}
		sol, err := sys.Solve(v0)
		if err != nil {
			t.Fatal(err)
		}
		c := curve{solN: sol, node: n - 1, start: 1e-10}
		if _, ok := sameCrossing(t, "ladder", c, supply.Vth, !high, c.start, c.start+60*sol.SlowestTimeConstant()); !ok {
			t.Fatalf("ladder with input %v never crossed V_th", high)
		}
	}
}

// extremum returns the local time of V_O's interior extremum of a 2x2
// solution in (0, span), found as the root of the derivative.
func extremum(t *testing.T, sys ode.Linear2, sol *ode.Solution2, span float64) float64 {
	t.Helper()
	d := func(tm float64) float64 { return sys.A.MulVec(sol.At(tm)).Add(sys.G).Y }
	const n = 4000
	prev := d(0)
	for i := 1; i <= n; i++ {
		tm := span * float64(i) / n
		v := d(tm)
		if (prev < 0) != (v < 0) {
			r, err := roots.Brent(d, span*float64(i-1)/n, tm, 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		prev = v
	}
	t.Fatal("no interior extremum")
	return 0
}

// TestSearchGrazingExtrema: levels within 1e-12 V of a V_O extremum —
// the bump of charge sharing from N in mode (1,0), the dip into an empty
// N in mode (0,0) — and levels equal to grid values next to the
// extremum, where prune decisions are closest to the rounding margin.
func TestSearchGrazingExtrema(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	deltas := []float64{-1e-12, -1e-13, -1e-14, -1e-15, 0, 1e-15, 1e-14, 1e-13, 1e-12}
	for trial := 0; trial < 60; trial++ {
		p := randomParams(rng)
		vdd := p.Supply.VDD
		for _, tc := range []struct {
			mode Mode
			v0   la.Vec2
		}{
			{Mode10, la.Vec2{X: vdd, Y: 0}},
			{Mode00, la.Vec2{X: 0, Y: vdd}},
		} {
			sys := p.System(tc.mode)
			sol, err := sys.Solve(tc.v0)
			if err != nil {
				t.Fatal(err)
			}
			tau := sol.SlowestTimeConstant()
			start := 1e-9 * rng.Float64()
			c := curve{sol2: &sol, start: start}
			tpk := start + extremum(t, sys, &sol, 10*tau)
			peak := sol.At(tpk - start).Y
			for w := 0; w < 4; w++ {
				t0 := start
				if w > 1 {
					t0 = start + (tpk-start)*rng.Float64()
				}
				t1 := tpk + (tpk-t0)*(0.2+3*rng.Float64())
				for _, rising := range []bool{false, true} {
					for _, d := range deltas {
						sameCrossing(t, "graze/"+tc.mode.String(), c, peak+d, rising, t0, t1)
					}
					// Grid values around the extremum's cell.
					jpk := int(float64(crossScanDensity) * (tpk - t0) / (t1 - t0))
					for j := jpk - 2; j <= jpk+2; j++ {
						if j >= 0 && j <= crossScanDensity {
							sameCrossing(t, "graze-grid/"+tc.mode.String(), c, c.value(gridPoint(t0, t1, j)), rising, t0, t1)
						}
					}
				}
			}
		}
	}
}

// TestSearchWithoutBound: the defective 2x2 kind has no bound, so the
// search degenerates to the plain scan.
func TestSearchWithoutBound(t *testing.T) {
	sys := ode.Linear2{A: la.Mat2{A11: -1e10, A12: 1e10, A22: -1e10}, G: la.Vec2{X: 8e9, Y: 8e9}}
	sol, err := sys.Solve(la.Vec2{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := curve{sol2: &sol}
	var ea, eb [2]float64
	c.exps(0, ea[:])
	c.exps(1e-9, eb[:])
	if _, _, _, ok := c.bound(0, 1e-9, ea[:], eb[:]); ok {
		t.Fatal("defective kind reported a bound")
	}
	for _, rising := range []bool{false, true} {
		for _, level := range []float64{0.1, 0.4, 0.7} {
			sameCrossing(t, "defective", c, level, rising, 0, 6e-9)
		}
	}
	if _, ok := sameCrossing(t, "defective", c, 0.4, true, 0, 6e-9); !ok {
		t.Fatal("defective curve did not cross 0.4 V rising")
	}
}

// FuzzFirstCrossing drives the differential check from fuzzed segment
// kinds, states, levels and windows.
func FuzzFirstCrossing(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.8, 0.0, 0.4, 0.0, 1.0, true)
	f.Add(int64(2), uint8(1), 0.0, 0.8, 0.4, 0.5, 0.3, false)
	f.Add(int64(3), uint8(2), 0.8, 0.8, 0.4, 0.0, 1.0, false)
	f.Add(int64(4), uint8(0), 0.4, 0.4, 0.4, 0.0, 0.01, true)
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, x, y, level, off, width float64, rising bool) {
		for _, v := range []float64{x, y, level, off, width} {
			if math.IsNaN(v) || math.Abs(v) > 10 {
				t.Skip()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		cc := randomCurve(t, rng, int(kind), []float64{x, y, 0.5 * (x + y)})
		t0 := cc.c.start + math.Abs(off)*cc.tau
		t1 := t0 + math.Abs(width)*60*cc.tau
		sameCrossing(t, cc.name, cc.c, level, rising, t0, t1)
		if tc, ok := firstDirectionalCrossing(cc.c, level, rising, t0, t1); ok {
			sameCrossing(t, cc.name+"/at-crossing", cc.c, level, !rising, tc, t1)
		}
	})
}
