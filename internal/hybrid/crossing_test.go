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

// gridPoint is grid point j of the window [t0, t1], as both searches
// compute it.
func gridPoint(t0, t1 float64, j int) float64 {
	return t0 + (t1-t0)*float64(j)/float64(crossScanDensity)
}

// sameCrossing asserts that the search and the reference scan agree
// exactly (ok and the bits of t) and returns their answer.
func sameCrossing(t *testing.T, what string, c curve, level float64, rising bool, t0, t1 float64) (float64, bool) {
	t.Helper()
	want, wantOK := scanCrossing(c.at, level, rising, t0, t1)
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

// TestSearchMatchesScan is the differential property test: over random
// NOR2, NAND-dual and NOR3 segments, states, windows, levels and both
// directions, the pruned search returns exactly the scan's answer.
func TestSearchMatchesScan(t *testing.T) {
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
			onGrid := cc.c.at(gridPoint(t0, t1, j))
			if _, ok := sameCrossing(t, cc.name+"/on-grid", cc.c, onGrid, rising, t0, t1); ok {
				crossings++
			}
		}
	}
	if crossings < trials/2 {
		t.Fatalf("only %d of %d searches crossed; the property test lost its teeth", crossings, 4*trials)
	}
}

// extremum returns the local time of V_O's interior extremum of a 2x2
// solution in (0, span), found as the root of the derivative.
func extremum(t *testing.T, sol *ode.Solution2, span float64) float64 {
	t.Helper()
	d := func(tm float64) float64 { return sol.Derivative(tm).Y }
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
			sol, err := p.System(tc.mode).Solve(tc.v0)
			if err != nil {
				t.Fatal(err)
			}
			tau := sol.SlowestTimeConstant()
			start := 1e-9 * rng.Float64()
			c := curve{sol2: &sol, start: start}
			tpk := start + extremum(t, &sol, 10*tau)
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
							sameCrossing(t, "graze-grid/"+tc.mode.String(), c, c.at(gridPoint(t0, t1, j)), rising, t0, t1)
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
	if _, _, _, ok := c.bound(0, 1e-9); ok {
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
