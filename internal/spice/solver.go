package spice

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hybriddelay/internal/la"
	"hybriddelay/internal/la/sparse"
)

// Solver owns the reusable workspace for MNA analyses on one circuit:
// one StampContext, the Jacobian cells, the RHS vector, the Newton
// iterate buffers and the LU factorization workspace. The circuit
// topology is fixed per bench, so the system size never changes and
// every transient step and Newton iteration can run in the same
// buffers — a fresh per-call solver re-allocates all of this on every
// step.
//
// The Jacobian layout follows the solver mode. DenseExact binds the
// devices to the row-major n×n matrix its dense LU factors in place.
// SparseFast binds them to packed slots, one per structural cell, which
// the sparse refactor addresses directly; its DC operating point, gmin
// stages and pivot fallbacks scatter the packed values into a separate
// n×n matrix for the dense LU.
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

	xNew     []float64  // next Newton iterate
	vPrev    []float64  // last accepted transient solution
	srcVals  []float64  // hoisted per-solve source values, by branch
	stateful []Stateful // the circuit's stateful devices, in order
	nbound   int        // devices bound by ensure
	packed   bool       // devices are bound to packed slots (SparseFast)

	// pattern holds the dense offsets of every Jacobian cell a device
	// stamp can touch: the union of the cells bound by ensure. The
	// sparse path analyzes it; the dense LU replays its pivot schedules
	// over it. In the packed layout, cell pattern[k] is slot k+1.
	pattern []int32
	// dense is the n×n matrix the dense LU factors: ctx.g itself in the
	// row-major layout, a scatter of ctx.g (see scatter) in the packed.
	dense la.Matrix
	lu    la.LU

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
	return &Solver{c: c}, nil
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

// ensure binds the circuit's devices on first use, and again if the
// system size, the device list or the layout the mode asks for changed.
func (s *Solver) ensure() {
	if s.dense.Rows != s.c.unknowns() || s.nbound != len(s.c.devices) || s.packed != (s.mode == SparseFast) {
		s.bind()
	}
}

// bind sizes the workspace and binds every device to the cells it
// stamps in the mode's layout (see binder), so the Newton loop stamps
// and commits with no per-iteration index mapping, ground test or type
// assertion. The structural pattern is the union of the bound cells.
//
//hybrid:alloc-ok one-time workspace build behind ensure's guard; cold after the first call per circuit and layout
func (s *Solver) bind() {
	c := s.c
	n := c.unknowns()
	ctx := &s.ctx
	s.packed = s.mode == SparseFast
	b := &binder{n: int32(n), nv: int32(c.NumNodes() - 1), packed: s.packed, trash: int32(n * n), slot: make([]int32, n*n)}
	if s.packed {
		b.trash = 0
	}
	s.stateful = s.stateful[:0]
	for _, d := range c.devices {
		d.bind(b)
		if st, ok := d.(Stateful); ok {
			s.stateful = append(s.stateful, st)
		}
	}
	s.pattern = b.pattern
	s.nbound = len(c.devices)
	if s.packed {
		ctx.g = make([]float64, len(s.pattern)+1)
		s.dense = la.Matrix{Rows: n, Cols: n, Data: make([]float64, n*n)}
	} else {
		ctx.g = make([]float64, n*n+1)
		s.dense = la.Matrix{Rows: n, Cols: n, Data: ctx.g[:n*n]}
	}
	ctx.rhs = make([]float64, n+1)
	ctx.x = make([]float64, n+1)
	ctx.RHS, ctx.V = ctx.rhs[:n], ctx.x[:n]
	s.xNew = make([]float64, n)
	s.vPrev = make([]float64, n)
	s.srcVals = make([]float64, len(c.vsources))
	ctx.srcVals = s.srcVals
	// The dense loop also stamps gmin shunts on the node diagonals.
	dense := slices.Clone(s.pattern)
	for i := 0; i < c.NumNodes()-1; i++ {
		dense = append(dense, int32(i*n+i))
	}
	s.lu.SetPattern(n, dense)
	s.sp = sparseState{}
}

// newton iterates the MNA system at the solver's current context until
// the update norm is below tolerance. The iterate is ctx.V: it holds
// the starting point on entry and the solution on success. gmin, when
// positive, adds a shunt conductance from every node to ground
// (homotopy stage); gminStage additionally selects the undamped
// iteration and error wording of the historical gmin solver, so stage
// behaviour is bit-identical to the per-call reference.
//
// The factor backend is fixed for the solve. The dense backend
// re-stamps every device and runs the fused factor+solve with the
// replayed pivot schedules. The sparse backend (SparseFast transient
// steps) stamps over the frozen linear base and refactors over the
// static pivot order, falling back to the dense kernel when a
// scheduled pivot degrades. DC operating points and gmin homotopy
// stages have a different structural pattern (capacitors open, added
// shunt diagonals) and run once per transient, so they stay dense. A
// failed solve outside a gmin stage returns a *SolveError.
//
// This loop is allocation-free in the steady state, enforced twice:
// statically by hybridlint's noalloc analyzer (this annotation), and
// dynamically by CI's zero-allocation gates on BenchmarkSolverNewton
// and BenchmarkSolverNewtonSparse.
//
//hybrid:noalloc
func (s *Solver) newton(opt NewtonOptions, gmin float64, gminStage bool) error {
	opt.defaults()
	s.ensure()
	c := s.c
	n := c.unknowns()
	nv := c.NumNodes() - 1
	ctx := &s.ctx
	sparse := s.mode == SparseFast && gmin == 0 && !ctx.DC
	// Hoist the source evaluation: every iteration of this solve stamps
	// at the same ctx.Time.
	for i, vs := range c.vsources {
		s.srcVals[i] = vs.Signal(ctx.Time)
	}
	if sparse {
		s.freezeLinear()
	}
	v, xNew := ctx.V, s.xNew
	worst := -1 // voltage unknown with the largest last update
	for iter := 0; iter < opt.MaxIter; iter++ {
		ctx.capFresh = iter == 0
		var err error
		if sparse {
			err = s.sparseIteration(iter)
		} else {
			clear(ctx.g)
			clear(ctx.rhs)
			for _, d := range c.devices {
				d.Stamp(ctx)
			}
			if s.packed {
				s.scatter()
			}
			if gmin > 0 {
				for i := 0; i < nv; i++ {
					s.dense.Data[i*n+i] += gmin
				}
			}
			// Fused factor+solve on the Jacobian in place: it is
			// re-stamped from zero next iteration anyway, and carrying
			// the RHS through the elimination folds the permute and
			// forward substitution into the factorization sweep
			// (bit-identical, see la.FactorSolveInPlace).
			if err = s.lu.FactorSolveInPlace(&s.dense, xNew, ctx.RHS); err == nil {
				s.stats.Factorizations++
			}
		}
		if err != nil {
			if gminStage {
				return err
			}
			return s.solveError(iter, worst, err)
		}
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
		if maxDelta <= opt.AbsTol+float64(opt.RelTol*maxV) {
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

// StepError reports a transient that failed at the minimum step size:
// the Newton solve of the step from Time did not succeed even with the
// step collapsed to Step. Err is the solve's error, a *SolveError.
type StepError struct {
	Time float64 // accepted time the step started from [s]
	Step float64 // the collapsed step size [s]
	Err  error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("spice: step failed at minimum step size t=%g (step %g): %v", e.Time, e.Step, e.Err)
}

// Unwrap returns the failed solve's error.
func (e *StepError) Unwrap() error { return e.Err }

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
	v := s.ctx.V
	clear(v)
	s.ctx.Time, s.ctx.Dt, s.ctx.Method, s.ctx.DC = t, 0, Trapezoidal, true
	if err := s.newton(opt, 0, false); err == nil {
		return slices.Clone(v), nil
	}
	// Gmin homotopy: solve with shrinking shunts to ground, carrying the
	// solution from stage to stage, then polish without the shunts.
	clear(v)
	for _, gmin := range gminStages {
		if err := s.newton(opt, gmin, true); err != nil {
			return nil, fmt.Errorf("spice: operating point gmin stage %g failed: %w", gmin, err)
		}
	}
	if err := s.newton(opt, 0, false); err != nil {
		return nil, err
	}
	return slices.Clone(v), nil
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
		if n := len(dst); n > 0 && b-dst[n-1] <= 1e-24+float64(1e-12*math.Abs(b)) {
			continue
		}
		dst = append(dst, b)
	}
	return append(dst, tstop), nil
}

// Run runs an adaptive-step transient analysis in the solver's reused
// workspace and hands every accepted time point to observe, TStart
// first: the time and the voltages of opt.Record (nil = every node) in
// record order, 0 for Ground. The slice is reused from call to call, so
// an observer that keeps values must copy them. An error from observe
// stops the run and is returned as is. Run itself keeps nothing of the
// trajectory: its memory does not grow with the number of steps.
func (s *Solver) Run(opt TransientOptions, observe func(t float64, v []float64) error) error {
	c := s.c
	if opt.TStop <= opt.TStart {
		return fmt.Errorf("spice: invalid transient window [%g, %g]", opt.TStart, opt.TStop)
	}
	s.mode = opt.Solver
	s.sparsePivotRel = opt.SparsePivotRel
	if opt.MaxStep <= 0 {
		opt.MaxStep = (opt.TStop - opt.TStart) / 50
	}
	if opt.MinStep <= 0 {
		opt.MinStep = opt.MaxStep * 1e-9
	}
	if opt.LTETol <= 0 {
		opt.LTETol = 1e-4
	}

	record := c.recorded(opt.Record)
	recVars := make([]int, len(record))
	for i, n := range record {
		// Ground is allowed (recorded as the constant 0 V reference);
		// anything else outside the circuit is a caller bug that used to
		// be recorded silently as zeros (negative IDs) or panic later.
		if int(n) < 0 || int(n) >= c.NumNodes() {
			return fmt.Errorf("spice: transient: cannot record unknown node %d", int(n))
		}
		recVars[i] = nodeVar(n)
	}
	vals := make([]float64, len(record))
	emit := func(t float64, sol []float64) error {
		for i, vi := range recVars {
			vals[i] = 0
			if vi >= 0 {
				vals[i] = sol[vi]
			}
		}
		return observe(t, vals)
	}

	// Breakpoint schedule.
	bps, err := normalizeBreakpoints(opt.Breakpoints, opt.TStart, opt.TStop)
	if err != nil {
		return err
	}

	// Initial state. The transient solution lives in the Newton iterate.
	// The first sparse solve re-freezes the linear base: device
	// parameters may have changed since the last transient.
	s.ensure()
	s.sp.frozen = false
	v := s.ctx.V
	if opt.InitialConditions != nil {
		clear(v)
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
		// OperatingPoint leaves the solved point in the iterate v.
		if _, err := s.OperatingPoint(opt.TStart, opt.Newton); err != nil {
			return fmt.Errorf("spice: operating point failed: %w", err)
		}
	}
	for _, st := range s.stateful {
		st.Init(s.ctx.x)
	}

	if err := emit(opt.TStart, v); err != nil {
		return err
	}

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
		err := s.newton(opt.Newton, 0, false)
		if err != nil {
			if hTry <= opt.MinStep*1.0001 {
				return &StepError{Time: t, Step: hTry, Err: err}
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
		for _, st := range s.stateful {
			st.Commit(ctx)
		}
		t += hTry
		copy(vPrev, v)
		s.stats.Steps++
		if err := emit(t, v); err != nil {
			return err
		}
		justBroke = false
		if nextBp < len(bps) && math.Abs(t-bps[nextBp]) <= 1e-24+float64(1e-12*math.Abs(t)) {
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
	return nil
}

// Transient runs Run with a recorder that keeps every accepted sample of
// the recorded nodes: 8 bytes per node and step, plus 8 for the time.
// Callers that need only where the nodes cross a level digitize inside
// the observer of Run instead and keep no samples.
func (s *Solver) Transient(opt TransientOptions) (*TransientResult, error) {
	record := s.c.recorded(opt.Record)
	opt.Record = record
	res := &TransientResult{nodes: map[NodeID][]float64{}}
	cols := make([][]float64, len(record))
	err := s.Run(opt, func(t float64, v []float64) error {
		res.Times = append(res.Times, t)
		for i, x := range v {
			cols[i] = append(cols[i], x)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range record {
		res.nodes[n] = cols[i]
	}
	return res, nil
}
