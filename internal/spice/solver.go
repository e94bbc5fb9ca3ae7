package spice

import (
	"fmt"
	"math"
	"sort"

	"hybriddelay/internal/la"
	"hybriddelay/internal/la/sparse"
)

// Solver owns the reusable workspace for MNA analyses on one circuit:
// one StampContext, the Jacobian G, the RHS vector, the Newton iterate
// buffers and the LU factorization workspace. The circuit topology is
// fixed per bench, so the system size never changes and every transient
// step and Newton iteration can run in the same buffers — a fresh
// per-call solver re-allocates all of this on every step.
//
// The circuit is validated once at construction; the topology must not
// change afterwards. A Solver is not safe for concurrent use — build
// one per goroutine (benches already are per-goroutine).
//
// All default-path results are bit-identical to the package-level
// Transient/OperatingPoint reference: buffer reuse changes where
// numbers live, never the arithmetic performed on them.
type Solver struct {
	c   *Circuit
	ctx StampContext

	xNew    []float64 // next Newton iterate
	v       []float64 // transient solution vector
	vPrev   []float64 // last accepted transient solution
	srcVals []float64 // hoisted per-solve source values, by branch

	// pattern holds the dense offsets of every Jacobian entry a device
	// stamp can touch, built once from topology. The sparse path
	// analyzes it; the dense LU replays its pivot schedules over it.
	pattern []int32
	lu      la.LU

	mode SolverMode  // linear-solver strategy of the current transient
	sp   sparseState // SparseFast workspace (device partition, base, symbolic)

	// Symbolic-analysis sharing and tuning (SparseFast only): the
	// cache the solver resolves Symbolics through (nil = the
	// process-wide SharedSymbolicCache), the cache scope identifying
	// this solver's operating point, and the pilot's pivot
	// admissibility threshold (0 = the sparse package default).
	symCache       *sparse.SymbolicCache
	symScope       string
	sparsePivotRel float64

	stats SolverStats
}

// SolverStats counts the work a Solver has performed since creation.
type SolverStats struct {
	Steps          int64 // accepted transient steps
	Rejected       int64 // rejected (re-tried) transient steps
	Iterations     int64 // Newton iterations
	Factorizations int64 // LU factorizations (dense and sparse)
	// Reused is always 0: every Newton iteration factors its fresh
	// Jacobian. The field stays for the readers of the counter set.
	Reused int64

	// SparseFast-mode counters (zero on the dense golden path).
	LinearReuses         int64 // iterations that reused the frozen linear stamp base
	SparseFactorizations int64 // factorizations done by the static-pivot sparse kernel
	SparseFallbacks      int64 // sparse refactors abandoned to the dense kernel
	SymbolicHits         int64 // symbolic analyses served from the shared cache
	SymbolicMisses       int64 // symbolic analyses this solver had to run
	Supernodes           int64 // multi-column supernodes in the adopted symbolics
}

// Add accumulates other into s, for aggregation across solvers.
func (s *SolverStats) Add(other SolverStats) {
	s.Steps += other.Steps
	s.Rejected += other.Rejected
	s.Iterations += other.Iterations
	s.Factorizations += other.Factorizations
	s.Reused += other.Reused
	s.LinearReuses += other.LinearReuses
	s.SparseFactorizations += other.SparseFactorizations
	s.SparseFallbacks += other.SparseFallbacks
	s.SymbolicHits += other.SymbolicHits
	s.SymbolicMisses += other.SymbolicMisses
	s.Supernodes += other.Supernodes
}

// NewSolver validates the circuit and returns a solver bound to it.
func NewSolver(c *Circuit) (*Solver, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{c: c}
	s.ctx.circuit = c
	return s, nil
}

// Stats returns the cumulative work counters.
func (s *Solver) Stats() SolverStats { return s.stats }

// SetSymbolicCache selects the cache SparseFast symbolic analyses
// resolve through; nil (the default) selects the process-wide
// SharedSymbolicCache. Tests inject private caches for isolation.
func (s *Solver) SetSymbolicCache(c *sparse.SymbolicCache) { s.symCache = c }

// SetSymbolicScope sets the symbolic cache scope: a string identifying
// this solver's operating point (gate kind plus bench parameters, a
// netlist content key). Solvers with equal scope, topology and options
// share one symbolic analysis; the pilot factorization reads
// representative *values*, so distinct operating points must use
// distinct scopes to keep their static pivot orders deterministic. An
// empty scope (the default) still shares safely among solvers of
// byte-identical construction.
func (s *Solver) SetSymbolicScope(scope string) { s.symScope = scope }

// ensure sizes the workspace for the circuit's current system size.
func (s *Solver) ensure() {
	n := s.c.unknowns()
	//hybrid:alloc-ok one-time workspace build behind the nil/size guard; cold after the first call per system size
	if s.ctx.G == nil || s.ctx.G.Rows != n {
		s.ctx.G = la.NewMatrix(n, n)
		s.pattern = s.c.stampPattern()
		// The dense loop also stamps gmin shunts on the node diagonals.
		dense := append([]int32(nil), s.pattern...)
		for i := 0; i < s.c.NumNodes()-1; i++ {
			dense = append(dense, int32(i*n+i))
		}
		s.lu.SetPattern(n, dense)
	}
	if len(s.ctx.RHS) != n {
		s.ctx.RHS = make([]float64, n)
	}
	if len(s.xNew) != n {
		s.xNew = make([]float64, n)
	}
	if len(s.v) != n {
		s.v = make([]float64, n)
	}
	if len(s.vPrev) != n {
		s.vPrev = make([]float64, n)
	}
	if len(s.srcVals) != len(s.c.vsources) {
		s.srcVals = make([]float64, len(s.c.vsources))
	}
}

// stampPattern returns the dense row-major offsets of every MNA
// Jacobian entry a device stamp can touch, derived from device
// topology, not stamped values: a MOSFET in cutoff stamps numeric
// zeros at structurally live positions, so value-based extraction
// would under-approximate. Unknown devices are assumed to stamp within
// the block of their declared nodes (the contract of the generic stamp
// helpers).
func (c *Circuit) stampPattern() []int32 {
	n := c.unknowns()
	var pattern []int32
	seen := make([]bool, n*n)
	add := func(i, j int) {
		if i >= 0 && j >= 0 && !seen[i*n+j] {
			seen[i*n+j] = true
			pattern = append(pattern, int32(i*n+j))
		}
	}
	for _, d := range c.devices {
		switch dev := d.(type) {
		case *VSource:
			ib := c.branchVar(dev.branch)
			ip, im := nodeVar(dev.plus), nodeVar(dev.minus)
			add(ip, ib)
			add(im, ib)
			add(ib, ip)
			add(ib, im)
		case *ISource:
			// RHS only.
		default:
			// Node blocks: MOSFET channel partials cover rows {d,s} ×
			// cols {d,g,s}, and gmin and cgs/cgd/cdb stay inside the
			// {d,g,s} block as well; resistors and capacitors stamp
			// their two-node block.
			nodes := d.Nodes()
			for _, a := range nodes {
				for _, b := range nodes {
					add(nodeVar(a), nodeVar(b))
				}
			}
		}
	}
	return pattern
}

// newton iterates the MNA system at the solver's current context until
// the update norm is below tolerance. v is the starting iterate and
// holds the solution on success. gmin, when positive, adds a shunt
// conductance from every node to ground (homotopy stage); gminStage
// additionally selects the undamped iteration and error wording of the
// historical gmin solver, so stage behaviour is bit-identical to the
// per-call reference.
//
// Every iteration factors the freshly stamped Jacobian and solves
// G·x = RHS directly. A failed solve outside a gmin stage returns a
// *SolveError.
//
// This loop is allocation-free in the steady state, enforced twice:
// statically by hybridlint's noalloc analyzer (this annotation), and
// dynamically by CI's "enforce zero-allocation Newton inner loop" gate
// on BenchmarkSolverNewton's -benchmem allocs/op.
//
//hybrid:noalloc
func (s *Solver) newton(v []float64, opt NewtonOptions, gmin float64, gminStage bool) error {
	// The sparse path serves only the transient inner loop: DC
	// operating points and gmin homotopy stages have a different
	// structural pattern (capacitors open, added shunt diagonals) and
	// run once per transient, so they stay on the robust dense path.
	if s.mode == SparseFast && gmin == 0 && !gminStage && !s.ctx.DC {
		return s.newtonSparse(v, opt)
	}
	// This dense solve factors ctx.G in place, leaving LU residue at
	// positions outside the sparse pattern's touched set; the next
	// sparse restamp must reset the workspace in full (every sparse
	// transient's DC/gmin prelude runs through here).
	s.sp.denseDirty = true
	opt.defaults()
	s.ensure()
	c := s.c
	n := c.unknowns()
	nv := c.NumNodes() - 1
	ctx := &s.ctx
	// Hoist the source evaluation: every iteration of this solve stamps
	// at the same ctx.Time.
	for i, vs := range c.vsources {
		s.srcVals[i] = vs.Signal(ctx.Time)
	}
	ctx.srcVals = s.srcVals
	xNew := s.xNew
	worst := -1 // voltage unknown with the largest last update
	for iter := 0; iter < opt.MaxIter; iter++ {
		ctx.capFresh = iter == 0
		ctx.G.Zero()
		rhs := ctx.RHS
		for i := range rhs {
			rhs[i] = 0
		}
		ctx.V = v
		for _, d := range c.devices {
			d.Stamp(ctx)
		}
		if gmin > 0 {
			for i := 0; i < nv; i++ {
				ctx.G.Add(i, i, gmin)
			}
		}
		// Fused factor+solve on the Jacobian in place: G is re-stamped
		// from zero next iteration anyway, and carrying the RHS through
		// the elimination folds the permute and forward substitution
		// into the factorization sweep (bit-identical, see
		// la.FactorSolveInPlace).
		if err := s.lu.FactorSolveInPlace(ctx.G, xNew, rhs); err != nil {
			if gminStage {
				return err
			}
			return s.solveError(iter, worst, err)
		}
		s.stats.Factorizations++
		s.stats.Iterations++
		// Damped update with convergence check on node voltages. The
		// infinity norm of the updated voltages is accumulated in the same
		// pass (a max over the identical values — order-independent), so
		// the convergence test below needs no extra vector walk.
		maxDelta := 0.0
		maxV := 0.0
		for i := 0; i < n; i++ {
			d := xNew[i] - v[i]
			if !gminStage && i < nv { // voltage unknowns only for damping
				if d > opt.Damping {
					d = opt.Damping
				} else if d < -opt.Damping {
					d = -opt.Damping
				}
			}
			v[i] += d
			if i < nv {
				if a := math.Abs(d); a > maxDelta {
					maxDelta, worst = a, i
				}
				if a := math.Abs(v[i]); a > maxV {
					maxV = a
				}
			}
		}
		if maxDelta <= opt.AbsTol+opt.RelTol*maxV {
			return nil
		}
	}
	if gminStage {
		return fmt.Errorf("spice: gmin stage did not converge")
	}
	return s.solveError(opt.MaxIter, worst, nil)
}

// SolveError reports a Newton solve of the MNA system that failed: the
// matrix was singular (Err wraps la.ErrSingular) or the iteration did
// not converge (Err is nil).
type SolveError struct {
	Time       float64 // time of the solve [s]
	Step       float64 // step size of the solve [s]; 0 at a DC operating point
	Iterations int     // Newton iterations completed before the failure
	Node       string  // node with the largest last update; "" before the first
	Err        error   // la.ErrSingular for a singular matrix, else nil
}

func (e *SolveError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("spice: MNA matrix singular at t=%g (step %g, %d iterations, worst node %q): %v",
			e.Time, e.Step, e.Iterations, e.Node, e.Err)
	}
	return fmt.Sprintf("spice: Newton did not converge at t=%g (step %g, %d iterations, worst node %q)",
		e.Time, e.Step, e.Iterations, e.Node)
}

// Unwrap returns the linear-algebra cause, if any.
func (e *SolveError) Unwrap() error { return e.Err }

// solveError describes a failed solve at the solver's current context
// after iters iterations; worst is the voltage unknown with the largest
// last update, or -1.
func (s *Solver) solveError(iters, worst int, err error) *SolveError {
	e := &SolveError{Time: s.ctx.Time, Step: s.ctx.Dt, Iterations: iters, Err: err}
	if worst >= 0 {
		e.Node = s.c.NodeName(NodeID(worst + 1))
	}
	return e
}

// gminStages is the shrinking-shunt homotopy schedule used when the
// plain operating-point solve fails.
var gminStages = [...]float64{1e-3, 1e-6, 1e-9, 1e-12}

// OperatingPoint computes the DC solution at time t (signals evaluated
// at t, capacitors open) in the solver's reused workspace. The returned
// slice is freshly allocated and owned by the caller; it holds the MNA
// unknowns: node voltages (ground excluded) followed by voltage-source
// branch currents.
func (s *Solver) OperatingPoint(t float64, opt NewtonOptions) ([]float64, error) {
	s.ensure()
	v := make([]float64, s.c.unknowns())
	s.ctx.Time, s.ctx.Dt, s.ctx.Method, s.ctx.DC = t, 0, Trapezoidal, true
	if err := s.newton(v, opt, 0, false); err == nil {
		return v, nil
	}
	// Gmin homotopy: solve with shrinking shunts to ground, carrying the
	// solution from stage to stage, then polish without the shunts.
	for i := range v {
		v[i] = 0
	}
	for _, gmin := range gminStages {
		if err := s.newton(v, opt, gmin, true); err != nil {
			return nil, fmt.Errorf("spice: operating point gmin stage %g failed: %w", gmin, err)
		}
	}
	if err := s.newton(v, opt, 0, false); err != nil {
		return nil, err
	}
	return v, nil
}

// normalizeBreakpoints validates and canonicalizes the breakpoint
// schedule for a transient over (tstart, tstop]: non-finite entries are
// rejected; entries outside the window are dropped (they could only
// force spurious step clamping near the edges); the survivors are
// sorted and deduplicated within the same tolerance the stepper uses to
// detect breakpoint arrival, so one input edge never triggers two
// step-size resets or a wasted backward-Euler restart. tstop itself is
// appended as the final breakpoint.
func normalizeBreakpoints(bps []float64, tstart, tstop float64) ([]float64, error) {
	out := make([]float64, 0, len(bps)+1)
	for _, b := range bps {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("spice: non-finite breakpoint %g", b)
		}
		// The stepper would skip anything this close to (or before) the
		// start, and never reach anything at or past tstop.
		if b <= tstart+1e-24 || b >= tstop {
			continue
		}
		out = append(out, b)
	}
	sort.Float64s(out)
	dst := out[:0]
	for _, b := range out {
		if n := len(dst); n > 0 && b-dst[n-1] <= 1e-24+1e-12*math.Abs(b) {
			continue
		}
		dst = append(dst, b)
	}
	return append(dst, tstop), nil
}

// Transient runs an adaptive-step transient analysis in the solver's
// reused workspace. Results are bit-identical to the package-level
// Transient reference.
func (s *Solver) Transient(opt TransientOptions) (*TransientResult, error) {
	c := s.c
	if opt.TStop <= opt.TStart {
		return nil, fmt.Errorf("spice: invalid transient window [%g, %g]", opt.TStart, opt.TStop)
	}
	s.mode = opt.Solver
	s.sparsePivotRel = opt.SparsePivotRel
	span := opt.TStop - opt.TStart
	if opt.MaxStep <= 0 {
		opt.MaxStep = span / 50
	}
	if opt.MinStep <= 0 {
		opt.MinStep = opt.MaxStep * 1e-9
	}
	if opt.LTETol <= 0 {
		opt.LTETol = 1e-4
	}

	record := opt.Record
	if record == nil {
		for i := 1; i < c.NumNodes(); i++ {
			record = append(record, NodeID(i))
		}
	}
	for _, n := range record {
		// Ground is allowed (recorded as the constant 0 V reference);
		// anything else outside the circuit is a caller bug that used to
		// be recorded silently as zeros (negative IDs) or panic later.
		if int(n) < 0 || int(n) >= c.NumNodes() {
			return nil, fmt.Errorf("spice: transient: cannot record unknown node %d", int(n))
		}
	}

	// Breakpoint schedule.
	bps, err := normalizeBreakpoints(opt.Breakpoints, opt.TStart, opt.TStop)
	if err != nil {
		return nil, err
	}

	// Initial state.
	s.ensure()
	v := s.v
	if opt.InitialConditions != nil {
		for i := range v {
			v[i] = 0
		}
		//hybrid:nondet-ok each node writes its own v[i]; distinct keys touch distinct indices, so visit order cannot change the result
		for n, val := range opt.InitialConditions {
			if i := nodeVar(n); i >= 0 {
				v[i] = val
			}
		}
		// Nodes held by voltage sources take the source value at TStart.
		for _, vs := range c.vsources {
			val := vs.Signal(opt.TStart)
			ip, im := nodeVar(vs.plus), nodeVar(vs.minus)
			if ip >= 0 && im < 0 {
				v[ip] = val
			} else if im >= 0 && ip < 0 {
				v[im] = -val
			}
		}
	} else {
		op, err := s.OperatingPoint(opt.TStart, opt.Newton)
		if err != nil {
			return nil, fmt.Errorf("spice: operating point failed: %w", err)
		}
		copy(v, op)
	}
	for _, d := range c.devices {
		if st, ok := d.(Stateful); ok {
			st.Init(v)
		}
	}

	// Size the capture buffers for the common case — mostly MaxStep-sized
	// accepted steps plus a short backward-Euler recovery per breakpoint.
	estCap := 2 + int(span/opt.MaxStep) + 16*len(bps)
	if estCap > 1<<20 {
		estCap = 1 << 20
	}
	res := &TransientResult{
		Times: make([]float64, 0, estCap),
		nodes: map[NodeID][]float64{},
		names: map[NodeID]string{},
	}
	// Capture into index-addressed columns — a map assignment per node
	// per accepted step is pure hashing overhead on the hot path; the
	// columns are handed to the result map once, after the loop.
	cols := make([][]float64, len(record))
	recVars := make([]int, len(record))
	for ci, n := range record {
		cols[ci] = make([]float64, 0, estCap)
		recVars[ci] = nodeVar(n)
		res.names[n] = c.NodeName(n)
	}
	capture := func(t float64, sol []float64) {
		res.Times = append(res.Times, t)
		for ci, vi := range recVars {
			val := 0.0
			if vi >= 0 {
				val = sol[vi]
			}
			cols[ci] = append(cols[ci], val)
		}
	}
	capture(opt.TStart, v)

	t := opt.TStart
	h := opt.MaxStep / 16
	vPrev := s.vPrev
	copy(vPrev, v)
	justBroke := true // start conservatively with BE
	nextBp := 0
	ctx := &s.ctx
	ctx.DC = false
	for t < opt.TStop-1e-24 {
		for nextBp < len(bps) && bps[nextBp] <= t+1e-24 {
			nextBp++
		}
		// Clamp the step to the next breakpoint.
		hTry := math.Min(h, opt.MaxStep)
		if nextBp < len(bps) && t+hTry > bps[nextBp] {
			hTry = bps[nextBp] - t
		}
		if hTry < opt.MinStep {
			hTry = opt.MinStep
		}
		method := opt.Method
		if justBroke {
			method = BackwardEuler
		}

		// Solve the step.
		ctx.Time, ctx.Dt, ctx.Method = t+hTry, hTry, method
		copy(v, vPrev)
		err := s.newton(v, opt.Newton, 0, false)
		if err != nil {
			if hTry <= opt.MinStep*1.0001 {
				return nil, fmt.Errorf("spice: step failed at minimum step size t=%g: %w", t, err)
			}
			h = hTry / 4
			s.stats.Rejected++
			continue
		}
		// Simple LTE proxy: largest node-voltage change this step; reject
		// steps that move any node too fast to resolve the waveforms.
		maxDv := 0.0
		for i := 0; i < c.NumNodes()-1; i++ {
			if d := math.Abs(v[i] - vPrev[i]); d > maxDv {
				maxDv = d
			}
		}
		limit := 40 * opt.LTETol
		if maxDv > limit && hTry > opt.MinStep*1.0001 {
			h = hTry / 2
			s.stats.Rejected++
			continue
		}

		// Accept.
		ctx.V = v
		for _, d := range c.devices {
			if st, ok := d.(Stateful); ok {
				st.Commit(ctx)
			}
		}
		t += hTry
		copy(vPrev, v)
		capture(t, v)
		s.stats.Steps++
		justBroke = false
		if nextBp < len(bps) && math.Abs(t-bps[nextBp]) <= 1e-24+1e-12*math.Abs(t) {
			justBroke = true
			h = opt.MaxStep / 64
			continue
		}
		// Grow the step gently when the solution is smooth.
		if maxDv < limit/4 {
			h = hTry * 1.5
		} else {
			h = hTry
		}
	}
	for ci, n := range record {
		res.nodes[n] = cols[ci]
	}
	return res, nil
}
