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
// output node of an n-node switch-level segment (solN). at evaluates it,
// bound encloses every value at returns for a time in [ta, tb] (see
// ode.Solution2.BoundY). Both derive the local time as t - start, so a
// window whose ends are grid times covers every grid time between them
// exactly. It is a concrete type rather than an interface so that the
// search allocates nothing.
type curve struct {
	sol2  *ode.Solution2
	solN  *ode.SolutionN
	node  int
	start float64
}

func (c *curve) at(t float64) float64 {
	if c.sol2 != nil {
		return c.sol2.At(t - c.start).Y
	}
	return c.solN.Component(c.node, t-c.start)
}

func (c *curve) bound(ta, tb float64) (lo, hi, margin float64, ok bool) {
	if c.sol2 != nil {
		return c.sol2.BoundY(ta-c.start, tb-c.start)
	}
	return c.solN.BoundComponent(c.node, ta-c.start, tb-c.start)
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
// which no cell inside the range can trigger on, and only that sign is
// carried into the next cell. Dropping is therefore exact — the result is
// bit-identical to the full scan — because the grid times and local
// times are the same rounded expressions in both, IEEE rounding is
// monotone (so the computed grid times inside a range lie between its
// ends), and the sign of g equals the sign of curve - level exactly.
// A range without a bound (the defective 2x2 kind), like a range of at
// most scanCells cells, is scanned cell by cell.
func firstDirectionalCrossing(c curve, level float64, rising bool, t0, t1 float64) (float64, bool) {
	if t1 <= t0 {
		return 0, false
	}
	s := crossingSearch{c: c, level: level, rising: rising, t0: t0, t1: t1}
	s.search(0, crossScanDensity)
	return s.t, s.ok
}

// crossingSearch is the state of one firstDirectionalCrossing call.
type crossingSearch struct {
	c      curve
	level  float64
	rising bool
	t0, t1 float64

	// prev is g at the last grid point visited; only its sign is used,
	// so a dropped range leaves ±1 here. hasPrev is false until the
	// first grid point has been evaluated or dropped.
	prev    float64
	hasPrev bool

	t  float64 // result, once a cell triggered
	ok bool
}

// gridTime returns grid point j, with the scan's exact expression.
func (s *crossingSearch) gridTime(j int) float64 {
	if j == 0 {
		return s.t0
	}
	return s.t0 + (s.t1-s.t0)*float64(j)/float64(crossScanDensity)
}

func (s *crossingSearch) g(t float64) float64 { return s.c.at(t) - s.level }

// scanCells is the largest cell range the search scans directly rather
// than bounding: a bound costs about two evaluations of the curve, so
// bisecting such short ranges further saves nothing.
const scanCells = 4

// search visits cells j0+1..j1 in order and reports whether one of them
// triggered (the result is then in s.t, s.ok).
func (s *crossingSearch) search(j0, j1 int) bool {
	if j1-j0 > scanCells {
		lo, hi, m, ok := s.c.bound(s.gridTime(j0), s.gridTime(j1))
		switch {
		case !ok:
			// No bound: scan every cell below.
		case lo-m > s.level:
			s.prev, s.hasPrev = 1, true
			return false
		case hi+m < s.level:
			s.prev, s.hasPrev = -1, true
			return false
		default:
			mid := (j0 + j1) / 2
			return s.search(j0, mid) || s.search(mid, j1)
		}
	}
	for j := j0 + 1; j <= j1; j++ {
		if s.cell(j) {
			return true
		}
	}
	return false
}

// cell evaluates grid cell j (points j-1 and j) with the scan's trigger
// rule.
func (s *crossingSearch) cell(j int) bool {
	if !s.hasPrev {
		s.prev, s.hasPrev = s.g(s.gridTime(j-1)), true
	}
	t := s.gridTime(j)
	v := s.g(t)
	if (s.prev < 0 && v >= 0 && s.rising) || (s.prev > 0 && v <= 0 && !s.rising) {
		if v == 0 {
			s.t, s.ok = t, true
			return true
		}
		if r, err := roots.Brent(s.g, s.gridTime(j-1), t, 0); err == nil {
			s.t, s.ok = r, true
		}
		return true
	}
	s.prev = v
	return false
}
