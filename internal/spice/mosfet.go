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

	ch            channel // bound unknowns and cells; channel() loads P's parameters
	cgs, cgd, cdb capState
}

// Name returns the device name.
func (m *MOSFET) Name() string { return m.name }

// Nodes returns drain, gate, source.
func (m *MOSFET) Nodes() []NodeID { return []NodeID{m.d, m.g, m.s} }

// channel is the square-law channel of one MOSFET as a solver stamps
// it: the four parameters the channel reads, the terminal unknowns and
// the cells of the drain and source rows by columns {d, g, s}. It is a
// plain value, so the sparse solver keeps copies of its MOSFETs'
// channels in one contiguous bank; the dense Stamp uses the device's own.
type channel struct {
	vt0, k, lambda         float64
	iD, iG, iS             int32
	dd, dg, ds, sd, sg, ss int32
	pmos                   bool
}

// channel loads the parameters m.P holds now into m's bound channel
// and returns it.
func (m *MOSFET) channel() *channel {
	ch := &m.ch
	ch.pmos, ch.vt0, ch.k, ch.lambda = m.P.PMOS, m.P.VT0, m.P.K, m.P.Lambda
	return ch
}

// stamp linearises the channel current around the iterate x,
//
//	I(v) ~= I0 + Gd*(vd-vd0) + Gg*(vg-vg0) + Gs*(vs-vs0),
//
// adding the partials into the Jacobian G and the affine remainder, as
// an equivalent current source, into rhs; it returns I0 (the current
// into the physical drain terminal) and the partials. This is the one
// place the channel law is written out, for the dense Stamp and the
// sparse bank alike.
//
// The law is the square-law current of an nMOS with vds >= 0,
// C1-continuous across the cutoff boundary (vgs = VT0) and the
// triode/saturation boundary (vds = vgs - VT0), which keeps the Newton
// iteration stable. Polarity (pMOS) and reverse biasing (vds < 0) are
// handled by symmetry mappings, so the partials are exact in every
// quadrant.
func (ch *channel) stamp(G, rhs, x []float64) (i0, gd, gg, gs float64) {
	vd, vg, vs := x[ch.iD], x[ch.iG], x[ch.iS]
	// Map pMOS onto nMOS by negating all terminal voltages. Under the
	// mapping w = -v the physical current flips sign, while dI/dv =
	// sign(dI_w/dw)*sign(dw/dv) leaves the conductances unchanged.
	sign := 1.0
	wd, wg, ws := vd, vg, vs
	if ch.pmos {
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
	// The nMOS-oriented current at (vgs, vds) = (wg-es, ed-es) and its
	// partials gm = dI/dvgs, gds = dI/dvds.
	var cur, gm, gds float64
	if vov, vds := wg-es-ch.vt0, ed-es; vov > 0 {
		lam := 1 + float64(ch.lambda*vds)
		if vds < vov {
			// Triode region.
			q := float64(vov*vds) - float64(0.5*vds*vds)
			cur = ch.k * q * lam
			gm = ch.k * vds * lam
			gds = float64(ch.k*(vov-vds)*lam) + float64(ch.k*q*ch.lambda)
		} else {
			// Saturation.
			q := 0.5 * vov * vov
			cur = ch.k * q * lam
			gm = ch.k * vov * lam
			gds = ch.k * q * ch.lambda
		}
	}
	// The current into the *physical* drain terminal in the w-frame,
	// and its partials with respect to (wd, wg, ws); those of the
	// effective terminals are gds, gm and -gm-gds.
	if !swapped {
		i0, gd, gg, gs = cur, gds, gm, -gm-gds
	} else {
		i0, gd, gg, gs = -cur, -(-gm - gds), -gm, -gds
	}
	i0 = float64(sign * i0)

	// KCL at drain: +I leaves the node into the device.
	G[ch.dd] += gd
	G[ch.dg] += gg
	G[ch.ds] += gs
	// KCL at source: -I.
	G[ch.sd] -= gd
	G[ch.sg] -= gg
	G[ch.ss] -= gs
	// Affine remainder as a current leaving the drain, entering the source.
	ieq := i0 - float64(gd*vd) - float64(gg*vg) - float64(gs*vs)
	rhs[ch.iD] -= ieq
	rhs[ch.iS] += ieq
	return i0, gd, gg, gs
}

// Stamp implements Device: the channel linearised around the iterate,
// then the iterate-independent part (stampLinear). The sparse solver
// freezes the latter into its linear base and stamps the channel from
// its bank; both halves run the same code as here.
func (m *MOSFET) Stamp(ctx *StampContext) {
	m.channel().stamp(ctx.g, ctx.rhs, ctx.x)
	m.stampLinear(ctx)
}

func (m *MOSFET) bind(b *binder) {
	ch := &m.ch
	ch.iD, ch.iG, ch.iS = b.node(m.d), b.node(m.g), b.node(m.s)
	ch.dd, ch.dg, ch.ds = b.cell(ch.iD, ch.iD), b.cell(ch.iD, ch.iG), b.cell(ch.iD, ch.iS)
	// The channel draws no gate current: the gate row is bound for the
	// structural pattern (and its slot order) only.
	b.cell(ch.iG, ch.iD)
	b.cell(ch.iG, ch.iG)
	b.cell(ch.iG, ch.iS)
	ch.sd, ch.sg, ch.ss = b.cell(ch.iS, ch.iD), b.cell(ch.iS, ch.iG), b.cell(ch.iS, ch.iS)
	m.cgs.cells = b.pair(m.g, m.s)
	m.cgd.cells = b.pair(m.g, m.d)
	m.cdb.cells = b.pair(m.d, Ground)
}

// stampLinear stamps the iterate-independent part of the device: the
// convergence leakage conductance and the parasitic capacitances'
// companion models.
func (m *MOSFET) stampLinear(ctx *StampContext) {
	// Leakage conductance for convergence robustness.
	if g := m.P.Gmin; g > 0 {
		G, ch := ctx.g, &m.ch
		G[ch.dd] += g
		G[ch.ds] -= g
		G[ch.ss] += g
		G[ch.sd] -= g
	}

	// Parasitic capacitances.
	m.cgs.stamp(ctx, m.P.Cgs)
	m.cgd.stamp(ctx, m.P.Cgd)
	m.cdb.stamp(ctx, m.P.Cdb)
}
