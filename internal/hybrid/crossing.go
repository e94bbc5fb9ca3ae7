package hybrid

import (
	"hybriddelay/internal/ode"
	"hybriddelay/internal/roots"
)

// crossScanDensity is the number of grid cells per segment window that
// isolate the first threshold crossing before Brent polishing. The output
// trajectory within a segment is a constant plus monotone exponential
// terms, so it has few extrema; a modest grid is ample.
const crossScanDensity = 256

// curve is one segment's output voltage in absolute time, as the
// crossing search sees it: V_O of a 2x2 mode segment (sol2) or the
// output node of an n-node switch-level segment (solN). exps writes the
// modal exponentials at a time, at evaluates the curve from them, and
// bound encloses every value at returns for a time in [ta, tb] (see
// ode.Solution2.BoundY). All derive the local time as t - start, so a
// window whose ends are grid times covers every grid time between them
// exactly. It is a concrete type rather than an interface so that the
// search allocates nothing.
type curve struct {
	sol2  *ode.Solution2
	solN  *ode.SolutionN
	node  int
	start float64
}

// exps writes the modal exponentials at time t into e. At local time 0
// they are exactly 1 (exp(±0) = 1 for the finite eigenvalues of a
// solved system), so no exp is taken.
func (c *curve) exps(t float64, e []float64) {
	switch local := t - c.start; {
	case local == 0:
		for k := range e {
			e[k] = 1
		}
	case c.sol2 != nil:
		c.sol2.Exps(local, e)
	default:
		c.solN.Exps(local, e)
	}
}

// slowestTimeConstant returns the magnitude of the curve's slowest
// stable pole's time constant (+Inf if it has none).
func (c *curve) slowestTimeConstant() float64 {
	if c.sol2 != nil {
		return c.sol2.SlowestTimeConstant()
	}
	return c.solN.SlowestTimeConstant()
}

func (c *curve) at(t float64, e []float64) float64 {
	if c.sol2 != nil {
		return c.sol2.AtExp(t-c.start, e).Y
	}
	return c.solN.ComponentExp(c.node, t-c.start, e)
}

func (c *curve) bound(ta, tb float64, ea, eb []float64) (lo, hi, margin float64, ok bool) {
	if c.sol2 != nil {
		return c.sol2.BoundYExp(ta-c.start, tb-c.start, ea, eb)
	}
	return c.solN.BoundComponentExp(c.node, ta-c.start, tb-c.start, ea, eb)
}

// firstDirectionalCrossing finds the earliest crossing of level with the
// requested slope sign in [t0, t1].
//
// The answer is defined by a scan of the crossScanDensity-cell grid
// t_j = t0 + (t1-t0)*j/crossScanDensity: the first cell whose endpoint
// values g = curve - level satisfy g(t_{j-1}) < 0 <= g(t_j) (rising) or
// g(t_{j-1}) > 0 >= g(t_j) (falling) is Brent-polished, or returned as is
// when g(t_j) == 0. The search reaches the same cell without visiting
// every grid point: it bisects the grid and drops any range of cells
// whose bound lies strictly above or below level by more than its
// margin. Every grid value in a dropped range then has one strict sign,
// which no cell inside the range can trigger on. Dropping is therefore
// exact — the result is bit-identical to the full scan — because the
// grid times and local times are the same rounded expressions in both,
// IEEE rounding is monotone (so the computed grid times inside a range
// lie between its ends), and the sign of g equals the sign of
// curve - level exactly. A range without a bound (the defective 2x2
// kind), like a range of at most scanCells cells, is scanned cell by
// cell.
//
// Each grid point's exponentials are computed once: a range receives
// its ends' from its parent and computes only its midpoint's, the cell
// scan reuses them, and Brent is handed the triggering cell's two g
// values.
//
//hybrid:noalloc
func firstDirectionalCrossing(c curve, level float64, rising bool, t0, t1 float64) (float64, bool) {
	if t1 <= t0 {
		return 0, false
	}
	var buf [expSlots * 4]float64
	var s crossingSearch
	s.c, s.level, s.rising, s.t0, s.t1 = c, level, rising, t0, t1
	s.n, s.ex, s.prevJ = 2, buf[:], -1
	if c.solN != nil {
		s.n = c.solN.Dim()
	}
	if len(s.ex) < expSlots*s.n {
		s.ex = make([]float64, expSlots*s.n) // gates with more than four nodes
	}
	e0, e1 := s.slot(1), s.slot(2)
	s.c.exps(t0, e0)
	s.c.exps(s.gridTime(crossScanDensity), e1)
	s.search(0, crossScanDensity, 0, e0, e1)
	return s.t, s.ok
}

// expSlots is the number of exponential vectors a search holds: the cell
// scan's current point and then Brent's (slot 0), the window ends (1, 2)
// and the midpoint of each of the six bisection levels from
// crossScanDensity cells down to scanCells (3 + depth).
const expSlots = 3 + 6

// crossingSearch is the state of one firstDirectionalCrossing call.
type crossingSearch struct {
	c      curve
	level  float64
	rising bool
	t0, t1 float64

	n  int       // number of modal exponentials
	ex []float64 // expSlots vectors of n exponentials

	// prev is g at grid point prevJ, the last one the cell scan
	// evaluated (-1 before the first).
	prev  float64
	prevJ int

	t  float64 // result, once a cell triggered
	ok bool
}

// slot returns exponential vector k.
func (s *crossingSearch) slot(k int) []float64 { return s.ex[k*s.n : (k+1)*s.n] }

// gridTime returns grid point j, with the scan's exact expression.
func (s *crossingSearch) gridTime(j int) float64 {
	if j == 0 {
		return s.t0
	}
	return s.t0 + float64((s.t1-s.t0)*float64(j)/float64(crossScanDensity))
}

// g evaluates curve - level at t from the exponentials e of t.
func (s *crossingSearch) g(t float64, e []float64) float64 { return s.c.at(t, e) - s.level }

// brentG is g at an arbitrary time, for Brent.
func (s *crossingSearch) brentG(t float64) float64 {
	e := s.slot(0)
	s.c.exps(t, e)
	return s.g(t, e)
}

// scanCells is the largest cell range the search scans directly rather
// than bounding: a bound costs about two evaluations of the curve, so
// bisecting such short ranges further saves nothing.
const scanCells = 4

// search visits cells j0+1..j1 in order, given the exponentials e0 and
// e1 of grid points j0 and j1 at bisection depth depth, and reports
// whether one of them triggered (the result is then in s.t, s.ok).
//
//hybrid:noalloc
func (s *crossingSearch) search(j0, j1, depth int, e0, e1 []float64) bool {
	if j1-j0 > scanCells {
		lo, hi, m, ok := s.c.bound(s.gridTime(j0), s.gridTime(j1), e0, e1)
		switch {
		case !ok:
			// No bound: scan every cell below.
		case lo-m > s.level, hi+m < s.level:
			return false
		default:
			mid := (j0 + j1) / 2
			em := s.slot(3 + depth)
			s.c.exps(s.gridTime(mid), em)
			return s.search(j0, mid, depth+1, e0, em) || s.search(mid, j1, depth+1, em, e1)
		}
	}
	if s.prevJ != j0 {
		// g(t_{j0}) is not evaluated yet: this is the first scan, or
		// the range before was dropped and left only its sign known.
		s.prev, s.prevJ = s.g(s.gridTime(j0), e0), j0
	}
	for j := j0 + 1; j <= j1; j++ {
		e := e1
		if j < j1 {
			e = s.slot(0)
			s.c.exps(s.gridTime(j), e)
		}
		if s.cell(j, e) {
			return true
		}
	}
	return false
}

// cell evaluates grid cell j (points j-1 and j, the latter from its
// exponentials e) with the scan's trigger rule.
//
//hybrid:noalloc
func (s *crossingSearch) cell(j int, e []float64) bool {
	t := s.gridTime(j)
	v := s.g(t, e)
	if (s.prev < 0 && v >= 0 && s.rising) || (s.prev > 0 && v <= 0 && !s.rising) {
		if v == 0 {
			s.t, s.ok = t, true
			return true
		}
		if r, err := roots.BrentBracket(s.brentG, s.gridTime(j-1), t, s.prev, v, 0); err == nil {
			s.t, s.ok = r, true
		}
		return true
	}
	s.prev, s.prevJ = v, j
	return false
}
