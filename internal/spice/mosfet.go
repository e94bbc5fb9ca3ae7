package spice

// MOSParams parameterises the square-law MOSFET model. The model is a
// level-1 Shichman–Hodges device with channel-length modulation and fixed
// (linear) gate–source, gate–drain and drain–bulk capacitances. The fixed
// gate capacitances are essential here: the Miller coupling from the
// inputs onto the internal node N and the output O is what produces the
// MIS slow-down for rising NOR outputs (paper §II), so the golden
// reference must include them.
type MOSParams struct {
	PMOS   bool    // channel polarity
	VT0    float64 // threshold voltage magnitude [V]
	K      float64 // transconductance K = mu*Cox*W/L [A/V^2]
	Lambda float64 // channel-length modulation [1/V]
	Cgs    float64 // gate-source capacitance [F]
	Cgd    float64 // gate-drain capacitance [F]
	Cdb    float64 // drain-bulk capacitance to ground [F]
	Gmin   float64 // leakage conductance drain-source for convergence [S]
}

// MOSFET is a three-terminal transistor (bulk tied to source implicitly,
// no body effect).
type MOSFET struct {
	name    string
	d, g, s NodeID
	P       MOSParams

	cgs, cgd, cdb capState

	// Bound cells: the terminal unknowns and the Jacobian block rows
	// {d, g, s} by columns {d, g, s}.
	iD, iG, iS                         int32
	dd, dg, ds, gd, gg, gs, sd, sg, ss int32
}

// Name returns the device name.
func (m *MOSFET) Name() string { return m.name }

// Nodes returns drain, gate, source.
func (m *MOSFET) Nodes() []NodeID { return []NodeID{m.d, m.g, m.s} }

// idsLaw evaluates the square-law channel current for an nMOS-oriented
// device with vds >= 0, plus its partial derivatives with respect to vgs
// and vds. The model is C1-continuous across the cutoff boundary
// (vgs = VT0) and the triode/saturation boundary (vds = vgs - VT0), which
// keeps the Newton iteration stable.
func idsLaw(p MOSParams, vgs, vds float64) (i, gm, gds float64) {
	vov := vgs - p.VT0
	if vov <= 0 {
		return 0, 0, 0
	}
	lam := 1 + float64(p.Lambda*vds)
	if vds < vov {
		// Triode region.
		q := float64(vov*vds) - float64(0.5*vds*vds)
		i = p.K * q * lam
		gm = p.K * vds * lam
		gds = float64(p.K*(vov-vds)*lam) + float64(p.K*q*p.Lambda)
	} else {
		// Saturation.
		q := 0.5 * vov * vov
		i = p.K * q * lam
		gm = p.K * vov * lam
		gds = p.K * q * p.Lambda
	}
	return i, gm, gds
}

// Eval returns the static channel current I flowing into the physical
// drain terminal for node voltages (vd, vg, vs), along with the partial
// derivatives dI/dvd, dI/dvg, dI/dvs. Polarity (pMOS) and reverse biasing
// (vds < 0) are handled by symmetry mappings, so the returned quantities
// are exact for every quadrant.
func (m *MOSFET) Eval(vd, vg, vs float64) (i, gd, gg, gs float64) {
	// Map pMOS onto nMOS by negating all terminal voltages. Under the
	// mapping w = -v the physical current flips sign, while dI/dv =
	// sign(dI_w/dw)*sign(dw/dv) leaves the conductances unchanged.
	sign := 1.0
	wd, wg, ws := vd, vg, vs
	if m.P.PMOS {
		wd, wg, ws = -vd, -vg, -vs
		sign = -1
	}
	// The square-law channel is symmetric: for wd < ws the device conducts
	// with the terminal roles exchanged.
	swapped := false
	ed, es := wd, ws
	if ed < es {
		ed, es = es, ed
		swapped = true
	}
	cur, gm, gds := idsLaw(m.P, wg-es, ed-es)
	// Partials of the effective current with respect to the effective
	// terminal voltages.
	dDeff := gds
	dG := gm
	dSeff := -gm - gds
	// Current into the *physical* drain terminal in the w-frame, and its
	// partials with respect to (wd, wg, ws).
	var iw, dwd, dwg, dws float64
	if !swapped {
		iw, dwd, dwg, dws = cur, dDeff, dG, dSeff
	} else {
		iw, dwd, dwg, dws = -cur, -dSeff, -dG, -dDeff
	}
	return sign * iw, dwd, dwg, dws
}

// Stamp implements Device. The channel current is linearised around the
// iterate,
//
//	I(v) ~= I0 + Gd*(vd-vd0) + Gg*(vg-vg0) + Gs*(vs-vs0),
//
// stamping the partials into the Jacobian and the affine remainder as an
// equivalent current source.
// The stamp is split into StampNonlinear (the iterate-dependent channel
// linearisation) and StampLinear (the iterate-independent leakage and
// parasitic capacitances), called in exactly the historical accumulation
// order so the dense golden path stays bit-identical. The sparse solver
// calls the two halves separately: the linear half is frozen into a base
// once per step size and only the channel is re-stamped per iteration.
func (m *MOSFET) Stamp(ctx *StampContext) {
	m.StampNonlinear(ctx)
	m.StampLinear(ctx)
}

func (m *MOSFET) bind(b *binder) {
	m.iD, m.iG, m.iS = b.node(m.d), b.node(m.g), b.node(m.s)
	m.dd, m.dg, m.ds = b.cell(m.iD, m.iD), b.cell(m.iD, m.iG), b.cell(m.iD, m.iS)
	m.gd, m.gg, m.gs = b.cell(m.iG, m.iD), b.cell(m.iG, m.iG), b.cell(m.iG, m.iS)
	m.sd, m.sg, m.ss = b.cell(m.iS, m.iD), b.cell(m.iS, m.iG), b.cell(m.iS, m.iS)
	m.cgs.cells = b.pair(m.g, m.s)
	m.cgd.cells = b.pair(m.g, m.d)
	m.cdb.cells = b.pair(m.d, Ground)
}

// StampNonlinear stamps only the channel linearisation — the part of
// the device that depends on the Newton iterate.
func (m *MOSFET) StampNonlinear(ctx *StampContext) {
	x := ctx.x
	vd, vg, vs := x[m.iD], x[m.iG], x[m.iS]

	i0, gd, gg, gs := m.Eval(vd, vg, vs)

	G := ctx.g
	// KCL at drain: +I leaves the node into the device.
	G[m.dd] += gd
	G[m.dg] += gg
	G[m.ds] += gs
	// KCL at source: -I.
	G[m.sd] -= gd
	G[m.sg] -= gg
	G[m.ss] -= gs
	// Affine remainder as a current leaving the drain, entering the source.
	ieq := i0 - float64(gd*vd) - float64(gg*vg) - float64(gs*vs)
	rhs := ctx.rhs
	rhs[m.iD] -= ieq
	rhs[m.iS] += ieq
}

// StampLinear stamps the iterate-independent part of the device: the
// convergence leakage conductance and the parasitic capacitances'
// companion models. Within one Newton solve these values are constant
// (companion values depend only on Dt, Method and committed state), so
// the sparse solver stamps them into a frozen base: the Jacobian part
// once per step size, the RHS part (StampLinearRHS) once per solve.
func (m *MOSFET) StampLinear(ctx *StampContext) {
	// Leakage conductance for convergence robustness.
	if g := m.P.Gmin; g > 0 {
		G := ctx.g
		G[m.dd] += g
		G[m.ds] -= g
		G[m.ss] += g
		G[m.sd] -= g
	}

	// Parasitic capacitances.
	m.cgs.stamp(ctx, m.P.Cgs)
	m.cgd.stamp(ctx, m.P.Cgd)
	m.cdb.stamp(ctx, m.P.Cdb)
}

// StampLinearRHS implements SplitStamper: the RHS half of StampLinear,
// the parasitic capacitances' companion currents.
func (m *MOSFET) StampLinearRHS(ctx *StampContext) {
	m.cgs.stampRHS(ctx)
	m.cgd.stampRHS(ctx)
	m.cdb.stampRHS(ctx)
}

// Init implements Stateful.
func (m *MOSFET) Init(x []float64) {
	m.cgs.init(x)
	m.cgd.init(x)
	m.cdb.init(x)
}

// Commit implements Stateful.
func (m *MOSFET) Commit(ctx *StampContext) {
	m.cgs.commit(ctx)
	m.cgd.commit(ctx)
	m.cdb.commit(ctx)
}
