package spice

import (
	"math"

	"hybriddelay/internal/la"
	"hybriddelay/internal/la/sparse"
)

// SplitStamper is a Device whose stamp separates into a part that is
// constant across the iterations of one Newton solve (StampLinear) and
// a part that depends on the current iterate (StampNonlinear). Calling
// both in order must accumulate exactly what Stamp accumulates. The
// sparse solver freezes the linear parts of all devices into a base
// matrix once per solve and replays only the nonlinear parts per
// iteration.
type SplitStamper interface {
	Device
	StampLinear(ctx *StampContext)
	StampNonlinear(ctx *StampContext)
}

// sparseState is the Solver's workspace for the SparseFast mode: the
// linear/nonlinear device partition, the frozen per-solve linear base,
// and the symbolic/numeric factorization pair over the solver's stamp
// pattern. Topology is fixed per solver, so everything but the
// symbolic analysis is built exactly once.
type sparseState struct {
	built bool

	linDevs   []Device       // wholly linear: stamped once per solve
	splitDevs []SplitStamper // linear part frozen, nonlinear replayed
	nlDevs    []Device       // unknown devices: re-stamped every iteration

	linG   *la.Matrix // frozen linear-base Jacobian
	linRHS []float64  // frozen linear-base right-hand side

	sym   *sparse.Symbolic
	num   *sparse.Numeric
	gen   uint64 // cache generation sym was obtained under (see Refresh)
	stale bool   // values drifted off the static pivot order: re-analyze

	// denseDirty records that the dense kernel factored ctx.G in place
	// (a pivot fallback here, or a dense-mode Newton solve on the same
	// workspace), leaving LU residue at positions outside the touched
	// set. The touched-only restore in restampSparse is then
	// insufficient: a later dense fallback would consume the residue,
	// and a re-analysis could schedule fill slots on top of it, so the
	// next restamp resets the matrix in full.
	denseDirty bool
}

// sharedSymCache is the process-wide symbolic-factorization cache:
// every solver that does not inject its own cache resolves Analyze
// results through it, so pooled bench clones, batched transients and
// serve tenants working the same topology run one Markowitz pilot per
// process instead of one per solver instance. The limit comfortably
// exceeds the distinct (operating point × topology) pairs a session
// touches; colder analyses are evicted LRU-first.
var sharedSymCache = sparse.NewSymbolicCache(512)

// SharedSymbolicCache returns the process-wide symbolic-factorization
// cache (metrics surfaces and tests).
func SharedSymbolicCache() *sparse.SymbolicCache { return sharedSymCache }

// symbolicCache resolves the cache this solver analyzes through.
func (s *Solver) symbolicCache() *sparse.SymbolicCache {
	if s.symCache != nil {
		return s.symCache
	}
	return sharedSymCache
}

// sparseOptions assembles the sparse analysis options from the
// solver's configuration.
func (s *Solver) sparseOptions() sparse.Options {
	return sparse.Options{PivotRel: s.sparsePivotRel}
}

// resolveSymbolic obtains the symbolic analysis for the solver's
// pattern through the shared cache: a plain lookup on first use, a
// generation-gated Refresh after a staleness signal (so N pooled
// solvers hitting staleness together run one re-analysis — whoever
// wins replaces the shared entry, the rest adopt it as a hit). The
// pilot reads ctx.G's current values.
//
//hybrid:alloc-ok cold path: runs once per topology (or per staleness refresh), never in the per-iteration loop
func (s *Solver) resolveSymbolic() error {
	sp := &s.sp
	cache := s.symbolicCache()
	var (
		sym *sparse.Symbolic
		gen uint64
		hit bool
		err error
	)
	if sp.sym == nil {
		sym, gen, hit, err = cache.Get(s.symScope, s.ctx.G, s.pattern, s.sparseOptions())
	} else {
		sym, gen, hit, err = cache.Refresh(s.symScope, s.ctx.G, s.pattern, s.sparseOptions(), sp.gen)
	}
	if err != nil {
		return err
	}
	if hit {
		s.stats.SymbolicHits++
	} else {
		s.stats.SymbolicMisses++
	}
	if sym != sp.sym {
		sp.sym = sym
		sp.num = sym.NewNumeric()
		s.stats.Supernodes += int64(sym.Supernodes())
	}
	sp.gen = gen
	sp.stale = false
	return nil
}

// ensureSparse builds the linear/nonlinear device partition.
//
//hybrid:alloc-ok one-time topology build, guarded by sp.built; never re-runs in the iteration loop
func (s *Solver) ensureSparse() {
	sp := &s.sp
	if sp.built {
		return
	}
	for _, d := range s.c.devices {
		switch dev := d.(type) {
		case *MOSFET:
			sp.splitDevs = append(sp.splitDevs, dev)
		case *Resistor, *Capacitor, *VSource, *ISource:
			sp.linDevs = append(sp.linDevs, dev)
		default:
			// Unknown device: assume it may depend on the iterate.
			sp.nlDevs = append(sp.nlDevs, d)
		}
	}
	n := s.c.unknowns()
	sp.linG = la.NewMatrix(n, n)
	sp.linRHS = make([]float64, n)
	sp.built = true
}

// restampSparse rebuilds the Jacobian and RHS for the current iterate
// from the frozen linear base: structural positions are copied from
// the base (fill slots are never stamped, so they come back as zeros)
// and only the nonlinear stamps are replayed.
func (s *Solver) restampSparse(v []float64, firstIter bool) {
	sp := &s.sp
	ctx := &s.ctx
	g, rhs := ctx.G, ctx.RHS
	if sp.sym != nil && !sp.denseDirty {
		for _, off := range sp.sym.Touched() {
			g.Data[off] = sp.linG.Data[off]
		}
	} else {
		// No analysis yet, or the dense kernel polluted the workspace:
		// the matrix may hold anything, reset fully. linG is zero
		// outside the pattern, so copying pattern positions restores
		// the complete clean state.
		g.Zero()
		for _, off := range s.pattern {
			g.Data[off] = sp.linG.Data[off]
		}
		sp.denseDirty = false
	}
	copy(rhs, sp.linRHS)
	ctx.V = v
	ctx.capFresh = firstIter
	for _, d := range sp.splitDevs {
		d.StampNonlinear(ctx)
	}
	for _, d := range sp.nlDevs {
		d.Stamp(ctx)
	}
}

// newtonSparse is the SparseFast Newton iteration for transient steps:
// same damped update and convergence test as the dense reference, but
// the linear device stamps are frozen once per solve and the linear
// system is solved by the static-pivot sparse refactor, falling back
// to the dense partial-pivot kernel (and scheduling a re-analysis)
// when a scheduled pivot degrades.
//
// Allocation-free in the steady state (the one-time topology build and
// cold symbolic resolution are //hybrid:alloc-ok): enforced statically
// by hybridlint's noalloc analyzer and dynamically by CI's -benchmem
// gates on BenchmarkSolverNewton and BenchmarkSparseFactorSolve.
//
//hybrid:noalloc
func (s *Solver) newtonSparse(v []float64, opt NewtonOptions) error {
	opt.defaults()
	s.ensure()
	s.ensureSparse()
	sp := &s.sp
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

	// Freeze the linear base for this solve. capFresh makes the
	// capacitor companion models recompute geq/ieq for this step's
	// (Dt, Method, state) during the base stamp; the cached values are
	// also what Commit consumes after acceptance, exactly as on the
	// dense path.
	gSave, rhsSave := ctx.G, ctx.RHS
	ctx.G, ctx.RHS = sp.linG, sp.linRHS
	for _, off := range s.pattern {
		sp.linG.Data[off] = 0
	}
	for i := range sp.linRHS {
		sp.linRHS[i] = 0
	}
	ctx.V = v
	ctx.capFresh = true
	for _, d := range sp.linDevs {
		d.Stamp(ctx)
	}
	for _, d := range sp.splitDevs {
		d.StampLinear(ctx)
	}
	ctx.G, ctx.RHS = gSave, rhsSave

	xNew := s.xNew
	worst := -1 // voltage unknown with the largest last update
	for iter := 0; iter < opt.MaxIter; iter++ {
		s.restampSparse(v, iter == 0)
		if iter > 0 {
			s.stats.LinearReuses++
		}
		if sp.sym == nil || sp.stale {
			if err := s.resolveSymbolic(); err != nil && sp.sym == nil {
				// Nothing to refactor over; only the dense kernel can
				// decide whether this iterate is genuinely singular.
				sp.stale = true
			}
		}
		solved := false
		if sp.sym != nil && !sp.stale {
			if err := sp.num.FactorSolve(ctx.G, xNew, ctx.RHS); err == nil {
				solved = true
				s.stats.Factorizations++
				s.stats.SparseFactorizations++
			} else {
				// Static pivot order no longer stable for these values:
				// re-stamp (the failed refactor clobbered the matrix) and
				// let dense partial pivoting finish this iteration.
				s.stats.SparseFallbacks++
				sp.stale = true
				s.restampSparse(v, iter == 0)
			}
		}
		if !solved {
			// The in-place dense factorization overwrites the whole
			// matrix, including positions outside the touched set.
			sp.denseDirty = true
			if err := s.lu.FactorSolveInPlace(ctx.G, xNew, ctx.RHS); err != nil {
				return s.solveError(iter, worst, err)
			}
			s.stats.Factorizations++
		}
		s.stats.Iterations++
		// Damped update with convergence check on node voltages — the
		// same update as the dense reference.
		maxDelta := 0.0
		maxV := 0.0
		for i := 0; i < n; i++ {
			d := xNew[i] - v[i]
			if i < nv { // voltage unknowns only for damping
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
	return s.solveError(opt.MaxIter, worst, nil)
}
