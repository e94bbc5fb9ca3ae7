package spice

import (
	"math"
	"math/rand"
	"testing"
)

func nmosParams() MOSParams {
	return MOSParams{VT0: 0.2, K: 70e-6, Lambda: 0.25}
}

func pmosParams() MOSParams {
	p := nmosParams()
	p.PMOS = true
	return p
}

// law is an unbound channel with a MOSFET's parameters: eval reads
// the channel current and its partials off a stamp, ids the
// nMOS-oriented current and its partials gm and gds.
type law struct{ ch channel }

func lawOf(p MOSParams) *law {
	l := &law{*(&MOSFET{P: p}).channel()}
	l.ch.iD, l.ch.iG, l.ch.iS = 0, 1, 2
	return l
}

func (l *law) eval(vd, vg, vs float64) (i, gd, gg, gs float64) {
	return l.ch.stamp(make([]float64, 1), make([]float64, 3), []float64{vd, vg, vs})
}

func (l *law) ids(vgs, vds float64) (i, gm, gds float64) {
	i, gds, gm, _ = l.eval(vds, vgs, 0)
	return i, gm, gds
}

func TestIdsRegions(t *testing.T) {
	p := nmosParams()
	// Cutoff.
	if i, gm, gds := lawOf(p).ids(0.1, 0.5); i != 0 || gm != 0 || gds != 0 {
		t.Errorf("cutoff: got (%g, %g, %g)", i, gm, gds)
	}
	// Saturation: vgs=0.8, vds=0.8 > vov=0.6.
	i, _, _ := lawOf(p).ids(0.8, 0.8)
	want := 0.5 * p.K * 0.6 * 0.6 * (1 + p.Lambda*0.8)
	if math.Abs(i-want) > 1e-12 {
		t.Errorf("saturation: i = %g, want %g", i, want)
	}
	// Triode: vgs=0.8, vds=0.1 < vov.
	i, _, _ = lawOf(p).ids(0.8, 0.1)
	want = p.K * (0.6*0.1 - 0.005) * (1 + p.Lambda*0.1)
	if math.Abs(i-want) > 1e-12 {
		t.Errorf("triode: i = %g, want %g", i, want)
	}
}

func TestIdsContinuity(t *testing.T) {
	p := nmosParams()
	// C0 and C1 at the triode/saturation boundary.
	vgs := 0.7
	vov := vgs - p.VT0
	iBelow, gmBelow, gdsBelow := lawOf(p).ids(vgs, vov-1e-9)
	iAbove, gmAbove, gdsAbove := lawOf(p).ids(vgs, vov+1e-9)
	if math.Abs(iBelow-iAbove) > 1e-12 {
		t.Errorf("current discontinuous at vdsat: %g vs %g", iBelow, iAbove)
	}
	if math.Abs(gmBelow-gmAbove) > 1e-9 {
		t.Errorf("gm discontinuous at vdsat: %g vs %g", gmBelow, gmAbove)
	}
	if math.Abs(gdsBelow-gdsAbove) > 1e-9 {
		t.Errorf("gds discontinuous at vdsat: %g vs %g", gdsBelow, gdsAbove)
	}
	// At the cutoff boundary.
	iOff, _, _ := lawOf(p).ids(p.VT0-1e-12, 0.5)
	iOn, gmOn, _ := lawOf(p).ids(p.VT0+1e-9, 0.5)
	if iOff != 0 || iOn > 1e-10 || gmOn > 1e-7 {
		t.Errorf("cutoff boundary rough: iOff=%g iOn=%g gmOn=%g", iOff, iOn, gmOn)
	}
}

// TestEvalDerivatives checks the analytic partials against finite
// differences across all quadrants and polarities.
func TestEvalDerivatives(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, pmos := range []bool{false, true} {
		p := nmosParams()
		p.PMOS = pmos
		m := lawOf(p)
		for trial := 0; trial < 500; trial++ {
			vd := rng.Float64()*1.6 - 0.4
			vg := rng.Float64()*1.6 - 0.4
			vs := rng.Float64()*1.6 - 0.4
			_, gd, gg, gs := m.eval(vd, vg, vs)
			const h = 1e-7
			ip, _, _, _ := m.eval(vd+h, vg, vs)
			im, _, _, _ := m.eval(vd-h, vg, vs)
			ngd := (ip - im) / (2 * h)
			ip, _, _, _ = m.eval(vd, vg+h, vs)
			im, _, _, _ = m.eval(vd, vg-h, vs)
			ngg := (ip - im) / (2 * h)
			ip, _, _, _ = m.eval(vd, vg, vs+h)
			im, _, _, _ = m.eval(vd, vg, vs-h)
			ngs := (ip - im) / (2 * h)
			scale := 1e-6 + math.Abs(gd) + math.Abs(gg) + math.Abs(gs)
			if math.Abs(gd-ngd) > 1e-3*scale || math.Abs(gg-ngg) > 1e-3*scale || math.Abs(gs-ngs) > 1e-3*scale {
				t.Fatalf("pmos=%v trial %d (vd=%g vg=%g vs=%g): analytic (%g,%g,%g) vs numeric (%g,%g,%g)",
					pmos, trial, vd, vg, vs, gd, gg, gs, ngd, ngg, ngs)
			}
		}
	}
}

// TestEvalSymmetry: swapping drain and source negates the current.
func TestEvalSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, pmos := range []bool{false, true} {
		p := nmosParams()
		p.PMOS = pmos
		m := lawOf(p)
		for trial := 0; trial < 200; trial++ {
			vd := rng.Float64()
			vg := rng.Float64()
			vs := rng.Float64()
			i1, _, _, _ := m.eval(vd, vg, vs)
			i2, _, _, _ := m.eval(vs, vg, vd)
			if math.Abs(i1+i2) > 1e-15 {
				t.Fatalf("pmos=%v: drain/source symmetry broken: %g vs %g", pmos, i1, i2)
			}
		}
	}
}

// TestEvalPolarity: a pMOS conducts when its gate is low relative to the
// source, mirroring the nMOS.
func TestEvalPolarity(t *testing.T) {
	n := lawOf(nmosParams())
	p := lawOf(pmosParams())
	// nMOS: vd=0.8, vg=0.8, vs=0 -> conducting, current into drain > 0.
	iN, _, _, _ := n.eval(0.8, 0.8, 0)
	if iN <= 0 {
		t.Errorf("nMOS on-current = %g, want > 0", iN)
	}
	// pMOS: source at VDD, gate low, drain low: current flows out of the
	// drain terminal (charging the node): negative by our convention.
	iP, _, _, _ := p.eval(0, 0, 0.8)
	if iP >= 0 {
		t.Errorf("pMOS on-current = %g, want < 0", iP)
	}
	// Off states.
	if i, _, _, _ := n.eval(0.8, 0, 0); i != 0 {
		t.Errorf("nMOS off-current = %g", i)
	}
	if i, _, _, _ := p.eval(0, 0.8, 0.8); i != 0 {
		t.Errorf("pMOS off-current = %g", i)
	}
}

// TestInverterDC: a CMOS inverter built from the devices has the correct
// rail outputs and a transition region near VDD/2.
func TestInverterDC(t *testing.T) {
	build := func(vin float64) float64 {
		c := NewCircuit()
		vdd := c.Node("vdd")
		in := c.Node("in")
		out := c.Node("out")
		c.AddDCVSource("Vdd", vdd, Ground, 0.8)
		c.AddDCVSource("Vin", in, Ground, vin)
		pp := pmosParams()
		pp.Gmin = 1e-12
		np := nmosParams()
		np.Gmin = 1e-12
		c.AddMOSFET("MP", out, in, vdd, pp)
		c.AddMOSFET("MN", out, in, Ground, np)
		sol, err := OperatingPoint(c, 0, NewtonOptions{})
		if err != nil {
			t.Fatalf("vin=%g: %v", vin, err)
		}
		return sol[int(out)-1]
	}
	if v := build(0); v < 0.75 {
		t.Errorf("Vout(0) = %g, want ~VDD", v)
	}
	if v := build(0.8); v > 0.05 {
		t.Errorf("Vout(VDD) = %g, want ~0", v)
	}
	vLow, vMid, vHigh := build(0.3), build(0.4), build(0.5)
	if !(vLow > vMid && vMid > vHigh) {
		t.Errorf("transfer curve not monotone: %g, %g, %g", vLow, vMid, vHigh)
	}
}

// TestInverterTransient: a driven inverter flips its output with a
// plausible delay and full swing.
func TestInverterTransient(t *testing.T) {
	c := NewCircuit()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddDCVSource("Vdd", vdd, Ground, 0.8)
	edge := func(tm float64) float64 {
		if tm < 100e-12 {
			return 0
		}
		if tm > 120e-12 {
			return 0.8
		}
		return 0.8 * (tm - 100e-12) / 20e-12
	}
	c.AddVSource("Vin", in, Ground, edge)
	pp := pmosParams()
	np := nmosParams()
	c.AddMOSFET("MP", out, in, vdd, pp)
	c.AddMOSFET("MN", out, in, Ground, np)
	c.AddCapacitor("CL", out, Ground, 0.5e-15)
	res, err := Transient(c, TransientOptions{
		TStart: 0, TStop: 400e-12,
		MaxStep:           2e-12,
		Breakpoints:       []float64{100e-12},
		InitialConditions: map[NodeID]float64{out: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.At(50e-12); math.Abs(got-0.8) > 0.02 {
		t.Errorf("initial output = %g, want 0.8", got)
	}
	if got := w.At(380e-12); got > 0.02 {
		t.Errorf("final output = %g, want ~0", got)
	}
	cr, ok := w.FirstCrossingAfter(0, 0.4, false)
	if !ok {
		t.Fatal("output never fell")
	}
	if cr < 100e-12 || cr > 250e-12 {
		t.Errorf("output crossing at %g ps, expected shortly after the input edge", cr*1e12)
	}
}
