package spice

import "hybriddelay/internal/la/sparse"

// LinearStamper is a Device whose stamp does not depend on the Newton
// iterate. Its Jacobian part depends only on (Dt, Method) and the
// device's parameters; StampLinearRHS adds only its RHS part (source
// values, companion currents), in Stamp's write order, so the sparse
// solver re-stamps the Jacobian part only when the step size or method
// changes.
type LinearStamper interface {
	Device
	StampLinearRHS(ctx *StampContext)
}

// SplitStamper is a Device whose stamp separates into a part that is
// constant across the iterations of one Newton solve (StampLinear) and
// a part that depends on the current iterate (StampNonlinear). Calling
// both in order must accumulate exactly what Stamp accumulates.
// StampLinearRHS adds only the RHS part of StampLinear, as for a
// LinearStamper. The sparse solver freezes the linear parts of all
// devices into a base once per step size and replays only the
// nonlinear parts per iteration.
type SplitStamper interface {
	Device
	StampLinear(ctx *StampContext)
	StampNonlinear(ctx *StampContext)
	StampLinearRHS(ctx *StampContext)
}

// sparseState is the Solver's workspace for the SparseFast mode: the
// device partition, the frozen linear base, and the symbolic/numeric
// factorization pair over the solver's stamp pattern. Topology is
// fixed per solver, so everything but the symbolic analysis is built
// exactly once.
type sparseState struct {
	built bool

	linDevs   []LinearStamper // wholly linear: base stamped once per step size
	splitDevs []SplitStamper  // linear part frozen, nonlinear replayed
	nlDevs    []Device        // neither: re-stamped every iteration

	// The frozen linear base in the packed layout of StampContext's g
	// and rhs (trash cells included), so bound stamps write it
	// directly. The Jacobian half linG was stamped at (dt, method);
	// frozen is false until the first freeze of a transient.
	linG, linRHS []float64
	frozen       bool
	dt           float64
	method       IntegrationMethod

	sym   *sparse.Symbolic
	num   *sparse.Numeric // sym compiled against the solver's slot layout
	gen   uint64          // cache generation sym was obtained under (see Refresh)
	stale bool            // values drifted off the static pivot order: re-analyze
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
// pilot reads the current values, scattered into the dense matrix. A
// new analysis is compiled against the packed layout — pattern[k] in
// slot k+1, slot 0 the trash cell — and the value arrays grow by its
// fill slots.
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
	s.scatter()
	if sp.sym == nil {
		sym, gen, hit, err = cache.Get(s.symScope, &s.dense, s.pattern, s.sparseOptions())
	} else {
		sym, gen, hit, err = cache.Refresh(s.symScope, &s.dense, s.pattern, s.sparseOptions(), sp.gen)
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
		num, err := sym.NewNumeric(append([]int32{-1}, s.pattern...))
		if err != nil {
			return err
		}
		if fill := num.Slots() - len(sp.linG); fill > 0 {
			s.ctx.g = append(s.ctx.g, make([]float64, fill)...)
			sp.linG = append(sp.linG, make([]float64, fill)...)
		}
		sp.sym, sp.num = sym, num
		s.stats.Supernodes += int64(sym.Supernodes())
	}
	sp.gen = gen
	sp.stale = false
	return nil
}

// ensureSparse builds the device partition from the stamp methods each
// device implements. A SplitStamper also has LinearStamper's method
// set, so it is matched first.
//
//hybrid:alloc-ok one-time topology build, guarded by sp.built; never re-runs in the iteration loop
func (s *Solver) ensureSparse() {
	sp := &s.sp
	if sp.built {
		return
	}
	for _, d := range s.c.devices {
		switch dev := d.(type) {
		case SplitStamper:
			sp.splitDevs = append(sp.splitDevs, dev)
		case LinearStamper:
			sp.linDevs = append(sp.linDevs, dev)
		default:
			sp.nlDevs = append(sp.nlDevs, d)
		}
	}
	sp.linG = make([]float64, len(s.ctx.g))
	sp.linRHS = make([]float64, len(s.ctx.rhs))
	sp.built = true
}

// freezeLinear stamps the linear base of one Newton solve. Its
// Jacobian half depends only on (Dt, Method) and the device parameters,
// so it is re-stamped only on the first solve of a transient (the
// parameters may have changed since the last one) and when the step
// size or method differs from the last freeze; capFresh then makes the
// capacitor companion models recompute geq/ieq. Otherwise only the RHS
// half is re-stamped, in the same device order, with the companion
// currents recomputed from the cached geq and the committed state. The
// cached values are also what Commit consumes after acceptance,
// exactly as on the dense path.
func (s *Solver) freezeLinear() {
	s.ensureSparse()
	sp := &s.sp
	ctx := &s.ctx
	g, rhs := ctx.g, ctx.rhs
	ctx.g, ctx.rhs = sp.linG, sp.linRHS
	clear(sp.linRHS)
	if sp.frozen && ctx.Dt == sp.dt && ctx.Method == sp.method {
		for _, d := range sp.linDevs {
			d.StampLinearRHS(ctx)
		}
		for _, d := range sp.splitDevs {
			d.StampLinearRHS(ctx)
		}
	} else {
		clear(sp.linG)
		ctx.capFresh = true
		for _, d := range sp.linDevs {
			d.Stamp(ctx)
		}
		for _, d := range sp.splitDevs {
			d.StampLinear(ctx)
		}
		sp.frozen, sp.dt, sp.method = true, ctx.Dt, ctx.Method
	}
	ctx.g, ctx.rhs = g, rhs
}

// restampSparse rebuilds the Jacobian and RHS for the current iterate
// from the frozen linear base (fill slots are never stamped, so they
// come back as zeros) and replays only the nonlinear stamps.
func (s *Solver) restampSparse() {
	sp := &s.sp
	ctx := &s.ctx
	copy(ctx.g, sp.linG)
	copy(ctx.rhs, sp.linRHS)
	for _, d := range sp.splitDevs {
		d.StampNonlinear(ctx)
	}
	for _, d := range sp.nlDevs {
		d.Stamp(ctx)
	}
}

// scatter fills the dense matrix from the packed values: the pattern's
// cells, zeros everywhere else. The dense kernel factors it for the DC
// operating point, the gmin stages and pivot fallbacks of the packed
// layout.
func (s *Solver) scatter() {
	d, g := s.dense.Data, s.ctx.g
	clear(d)
	for k, off := range s.pattern {
		d[off] = g[k+1]
	}
}

// sparseIteration stamps and solves one SparseFast Newton iteration
// into s.xNew: the static-pivot sparse refactor over the frozen base,
// falling back to the dense partial-pivot kernel (and scheduling a
// re-analysis) when a scheduled pivot degrades.
func (s *Solver) sparseIteration(iter int) error {
	sp := &s.sp
	ctx := &s.ctx
	s.restampSparse()
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
	if sp.sym != nil && !sp.stale {
		if err := sp.num.FactorSolve(ctx.g, s.xNew, ctx.RHS); err == nil {
			s.stats.Factorizations++
			s.stats.SparseFactorizations++
			return nil
		}
		// Static pivot order no longer stable for these values:
		// re-stamp (the failed refactor clobbered the values) and let
		// dense partial pivoting finish this iteration.
		s.stats.SparseFallbacks++
		sp.stale = true
		s.restampSparse()
	}
	s.scatter()
	if err := s.lu.FactorSolveInPlace(&s.dense, s.xNew, ctx.RHS); err != nil {
		return err
	}
	s.stats.Factorizations++
	return nil
}
