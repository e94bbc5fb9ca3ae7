package spice

import "hybriddelay/internal/waveform"

// IntegrationMethod selects the charge integration scheme.
type IntegrationMethod int

const (
	// Trapezoidal is second-order accurate; the default.
	Trapezoidal IntegrationMethod = iota
	// BackwardEuler is first-order, L-stable; used for the first step
	// after a breakpoint to damp trapezoidal ringing.
	BackwardEuler
)

// StampContext carries the state a device needs to stamp itself into the
// MNA system for one Newton iteration.
type StampContext struct {
	RHS []float64 // right-hand side (current) vector
	V   []float64 // current Newton iterate of the unknown vector

	Time   float64           // absolute time of the step being solved
	Dt     float64           // step size (0 during DC analysis)
	Method IntegrationMethod // integration scheme for this step
	DC     bool              // true during operating-point analysis

	// g, rhs and x are what bound stamps address (see binder). g holds
	// the Jacobian cells in the layout the devices were bound to — the
	// row-major n×n matrix followed by a trash cell, or packed slots
	// with the trash cell first — and the trash cell absorbs every
	// write to a ground row or column. rhs is RHS extended by a trash
	// cell, and x is V extended by the ground cell, which stays 0.
	g, rhs, x []float64

	// srcVals holds every voltage source's signal value at Time, indexed
	// by branch ordinal. The solver fills it once per Newton solve so
	// that source signals (closures with binary searches behind them)
	// are not re-evaluated on every iteration. Signals are pure
	// functions of time, so the hoisted value is identical.
	srcVals []float64

	// capFresh is true on the first Newton iteration of a solve: cap
	// companion models recompute their (Dt, Method, state)-dependent
	// geq/ieq then and replay the cached values on later iterations,
	// which stamp at the same Dt/Method/state by construction.
	capFresh bool
}

// binder hands devices the cells they stamp, once per solver (SPICE3's
// TSTALLOC setup). Unknowns are indexed as in the MNA vector; ground is
// index n, the trash cell of RHS and the zero cell of the iterate. The
// structural pattern is the union of the bound Jacobian cells as dense
// row-major offsets, in the order they were first bound. A cell's
// handle depends on the layout:
//   - row-major (DenseExact): the offset i*n+j, with every cell in a
//     ground row or column the trash cell n*n;
//   - packed (SparseFast): the slot k+1 for pattern[k], with slot 0 the
//     trash cell.
//
// A bound stamp writes its cells in the statement order of the guarded
// row-and-column stamp it replaces, so every cell receives the same
// sums in the same order in either layout; only the writes that were
// skipped for ground now land in the trash cells, which nothing reads.
type binder struct {
	n, nv   int32 // unknowns; node unknowns (the first branch unknown)
	packed  bool
	trash   int32
	pattern []int32
	slot    []int32 // by dense offset: 1 + the cell's index in pattern, 0 while unbound
}

// node returns the unknown of node id, or n for ground.
func (b *binder) node(id NodeID) int32 {
	if id == Ground {
		return b.n
	}
	return int32(nodeVar(id))
}

// cell binds the Jacobian cell (i, j) of two unknowns.
func (b *binder) cell(i, j int32) int32 {
	if i == b.n || j == b.n {
		return b.trash
	}
	off := i*b.n + j
	if b.slot[off] == 0 {
		b.pattern = append(b.pattern, off)
		b.slot[off] = int32(len(b.pattern))
	}
	if b.packed {
		return b.slot[off]
	}
	return off
}

// pair binds the node block of a two-terminal element between a and b.
func (b *binder) pair(a, c NodeID) pairCells {
	ia, ib := b.node(a), b.node(c)
	return pairCells{
		aa: b.cell(ia, ia), ab: b.cell(ia, ib), ba: b.cell(ib, ia), bb: b.cell(ib, ib),
		a: ia, b: ib,
	}
}

// pairCells are the bound cells of a two-terminal element: four
// Jacobian handles and the two unknowns, which index RHS and the
// iterate.
type pairCells struct{ aa, ab, ba, bb, a, b int32 }

// Device is an element that can stamp itself into the MNA system. A
// device binds every cell it stamps before its first stamp, so the
// interface is closed to this package's device kinds.
type Device interface {
	Name() string
	Nodes() []NodeID
	// Stamp adds the device's linearised contribution for the current
	// Newton iterate.
	Stamp(ctx *StampContext)
	bind(b *binder)
}

// Stateful devices carry charge state across timesteps.
type Stateful interface {
	Device
	// Init establishes device state from a converged DC solution or
	// user-supplied initial conditions: v holds the MNA unknowns and,
	// past them, a 0 for ground.
	Init(v []float64)
	// Commit updates internal state after a step has been accepted.
	Commit(ctx *StampContext)
}

// ---------------------------------------------------------------------
// Resistor

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	name  string
	a, b  NodeID
	R     float64
	cells pairCells
}

// Name returns the device name.
func (r *Resistor) Name() string { return r.name }

// Nodes returns the connected nodes.
func (r *Resistor) Nodes() []NodeID { return []NodeID{r.a, r.b} }

func (r *Resistor) bind(b *binder) { r.cells = b.pair(r.a, r.b) }

// Stamp implements Device.
func (r *Resistor) Stamp(ctx *StampContext) {
	g, p, G := 1/r.R, &r.cells, ctx.g
	G[p.aa] += g
	G[p.bb] += g
	G[p.ab] -= g
	G[p.ba] -= g
}

// StampLinearRHS implements LinearStamper: a resistor stamps no RHS.
func (r *Resistor) StampLinearRHS(*StampContext) {}

// ---------------------------------------------------------------------
// Capacitor

// capState integrates a single capacitance; shared by Capacitor and the
// MOSFET's parasitic capacitances.
type capState struct {
	cells pairCells // bound cells of the branch

	vPrev float64 // branch voltage at the last accepted step
	iPrev float64 // branch current at the last accepted step

	// Companion-model cache: geq and ieq depend only on (c, Dt, Method)
	// and the committed state, all of which are fixed for the duration
	// of one Newton solve. The solver marks the first iteration of every
	// solve (StampContext.capFresh) and the divisions are done once;
	// later iterations re-accumulate the identical cached values, so the
	// matrix sums are bit-for-bit unchanged.
	geq float64
	ieq float64
}

// stamp adds the companion model of a linear capacitance c across the
// bound branch; the branch current implied by the iterate is
// geq*v - ieq.
func (s *capState) stamp(ctx *StampContext, c float64) {
	if ctx.DC {
		return // open circuit at DC
	}
	if ctx.capFresh {
		switch ctx.Method {
		case BackwardEuler:
			s.geq = c / ctx.Dt
			s.ieq = s.geq * s.vPrev
		default: // Trapezoidal
			s.geq = 2 * c / ctx.Dt
			s.ieq = float64(s.geq*s.vPrev) + s.iPrev
		}
	}
	geq, ieq := s.geq, s.ieq
	p := &s.cells
	G, rhs := ctx.g, ctx.rhs
	G[p.aa] += geq
	G[p.ab] -= geq
	rhs[p.a] += ieq
	G[p.bb] += geq
	G[p.ba] -= geq
	rhs[p.b] -= ieq
}

// stampRHS adds only the companion current of stamp, recomputed from
// the cached geq and the committed state: the RHS half of a stamp at
// the (Dt, Method) geq was last computed for, outside DC. The formula
// and the write order are stamp's, so the sums are bit-identical.
func (s *capState) stampRHS(ctx *StampContext) {
	if ctx.Method == BackwardEuler {
		s.ieq = s.geq * s.vPrev
	} else {
		s.ieq = float64(s.geq*s.vPrev) + s.iPrev
	}
	rhs := ctx.rhs
	rhs[s.cells.a] += s.ieq
	rhs[s.cells.b] -= s.ieq
}

// commit records the accepted branch voltage/current. A transient
// commit always follows a converged Newton solve at the same (Dt,
// Method, state), so the cached companion values from stamp are
// exactly what a recomputation would produce.
func (s *capState) commit(ctx *StampContext) {
	v := ctx.x[s.cells.a] - ctx.x[s.cells.b]
	if ctx.DC || ctx.Dt == 0 {
		s.vPrev, s.iPrev = v, 0
		return
	}
	s.iPrev = float64(s.geq*v) - s.ieq
	s.vPrev = v
}

// init sets the stored voltage from the iterate x and zeroes the
// current.
func (s *capState) init(x []float64) { s.vPrev, s.iPrev = x[s.cells.a]-x[s.cells.b], 0 }

// Capacitor is a linear two-terminal capacitor.
type Capacitor struct {
	name  string
	a, b  NodeID
	C     float64
	state capState
}

// Name returns the device name.
func (c *Capacitor) Name() string { return c.name }

// Nodes returns the connected nodes.
func (c *Capacitor) Nodes() []NodeID { return []NodeID{c.a, c.b} }

func (c *Capacitor) bind(b *binder) { c.state.cells = b.pair(c.a, c.b) }

// Stamp implements Device.
func (c *Capacitor) Stamp(ctx *StampContext) { c.state.stamp(ctx, c.C) }

// StampLinearRHS implements LinearStamper.
func (c *Capacitor) StampLinearRHS(ctx *StampContext) { c.state.stampRHS(ctx) }

// Init implements Stateful.
func (c *Capacitor) Init(x []float64) { c.state.init(x) }

// Commit implements Stateful.
func (c *Capacitor) Commit(ctx *StampContext) { c.state.commit(ctx) }

// ---------------------------------------------------------------------
// Voltage source

// VSource is an ideal voltage source driven by a waveform.Signal. It
// contributes one branch-current unknown to the MNA system.
type VSource struct {
	name        string
	plus, minus NodeID
	Signal      waveform.Signal
	branch      int // ordinal among voltage sources, set by Circuit.Add

	// Bound cells: the KCL entries of the branch current in the plus
	// and minus rows, the branch row's entries, and the branch unknown.
	pb, mb, bp, bm, ib int32
}

// Name returns the device name.
func (v *VSource) Name() string { return v.name }

// Nodes returns the connected nodes.
func (v *VSource) Nodes() []NodeID { return []NodeID{v.plus, v.minus} }

func (v *VSource) bind(b *binder) {
	v.ib = b.nv + int32(v.branch)
	ip, im := b.node(v.plus), b.node(v.minus)
	v.pb, v.mb = b.cell(ip, v.ib), b.cell(im, v.ib)
	v.bp, v.bm = b.cell(v.ib, ip), b.cell(v.ib, im)
}

// Stamp implements Device.
func (v *VSource) Stamp(ctx *StampContext) {
	G := ctx.g
	// KCL rows: branch current leaves plus, enters minus.
	G[v.pb]++
	G[v.mb]--
	// Branch row: V(plus) - V(minus) = signal(t).
	G[v.bp]++
	G[v.bm]--
	ctx.rhs[v.ib] += ctx.srcVals[v.branch]
}

// StampLinearRHS implements LinearStamper.
func (v *VSource) StampLinearRHS(ctx *StampContext) { ctx.rhs[v.ib] += ctx.srcVals[v.branch] }

// Current returns the branch current of the source in a solution vector.
func (v *VSource) Current(c *Circuit, sol []float64) float64 {
	return sol[c.branchVar(v.branch)]
}

// ---------------------------------------------------------------------
// Current source

// ISource is an ideal constant current source; I flows into the plus
// terminal through the external circuit.
type ISource struct {
	name        string
	plus, minus NodeID
	I           float64

	ip, im int32 // bound RHS rows
}

// Name returns the device name.
func (s *ISource) Name() string { return s.name }

// Nodes returns the connected nodes.
func (s *ISource) Nodes() []NodeID { return []NodeID{s.plus, s.minus} }

func (s *ISource) bind(b *binder) { s.ip, s.im = b.node(s.plus), b.node(s.minus) }

// Stamp implements Device.
func (s *ISource) Stamp(ctx *StampContext) {
	ctx.rhs[s.im] -= s.I
	ctx.rhs[s.ip] += s.I
}

// StampLinearRHS implements LinearStamper: the whole stamp is RHS.
func (s *ISource) StampLinearRHS(ctx *StampContext) { s.Stamp(ctx) }
