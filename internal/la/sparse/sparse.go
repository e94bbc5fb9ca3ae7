// Package sparse provides a structurally sparse LU factorization for
// the MNA systems of the analog simulator, split KLU-style into a
// one-time symbolic phase and a cheap, repeatable numeric phase.
//
// The circuit topology — and therefore the nonzero pattern of the
// stamped Jacobian — is fixed for the life of a bench, while its values
// change on every Newton iteration of every timestep. Analyze runs a
// pilot factorization once on a representative matrix: it chooses a
// static row/column pivot order by Markowitz cost (with a relative
// magnitude admissibility threshold, the classical fill-reducing
// heuristic), discovers every fill-in position that elimination will
// create, and flattens the whole elimination into precomputed offset
// schedules. FactorSolve then refactors any matrix with the same
// pattern by replaying that schedule: no pivot search, no pattern
// discovery, no divisions beyond one reciprocal per pivot, no
// allocations, and — because the schedule only visits structural
// positions — O(nnz)-proportional work instead of O(n³).
//
// Values are stored packed. The caller keeps every structural entry in
// one slot of a flat value array — the handles SPICE3's TSTALLOC hands
// its devices, KLU's packed Ax — and NewNumeric compiles the schedules
// against that slot numbering once, so a refactor touches only the
// packed values: a few cache lines per pivot row rather than one n-wide
// dense row each. Analyze still reads its representative values from a
// dense row-major la.Matrix; it runs once per pattern.
//
// Analyze additionally partitions the elimination order into
// supernodes — maximal runs of consecutive steps whose columns share
// one sub-pattern and whose pivot rows share one U structure, which
// the repeated gate-stage blocks of MNA matrices produce in abundance.
// The numeric phase eliminates each supernode with a blocked kernel
// (unrolled rank-k trailing updates, one pass per exterior row instead
// of one per step), bit-identical to the scalar schedule: same pivot
// order, same per-position accumulation order, same guard decisions.
//
// The static pivot order is chosen for the representative values seen
// at Analyze time. If the values later drift so far that a scheduled
// pivot loses all significance against its row (|pivot| below
// RefactorRel times the row maximum), FactorSolve returns ErrPivot
// rather than amplify roundoff; callers fall back to a dense
// partial-pivot solve and re-Analyze on fresher values.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hybriddelay/internal/la"
)

// ErrPivot reports that a statically scheduled pivot became too small
// relative to its row during a numeric refactor. The factorization is
// abandoned mid-sweep (the values are partially clobbered); the caller
// should re-stamp, solve densely with partial pivoting, and request a
// fresh Analyze before the next sparse refactor.
var ErrPivot = errors.New("sparse: static pivot below stability threshold")

// Options tunes the symbolic analysis and the numeric stability guard.
// The zero value selects the defaults documented on each field.
type Options struct {
	// PivotRel is the pilot's admissibility threshold: a candidate
	// pivot must have magnitude at least PivotRel times the largest
	// magnitude in its column (among active rows) to be eligible for
	// Markowitz selection. Larger values favour stability over fill
	// reduction. Default 0.1.
	PivotRel float64
	// RefactorRel is the numeric phase's small-pivot guard: a scheduled
	// pivot whose magnitude falls below RefactorRel times the largest
	// magnitude in its (updated) row triggers ErrPivot. Default 1e-10.
	RefactorRel float64
}

func (o *Options) defaults() {
	if o.PivotRel <= 0 {
		o.PivotRel = 0.1
	}
	if o.RefactorRel <= 0 {
		o.RefactorRel = 1e-10
	}
}

// Symbolic is the result of the one-time analysis of a sparsity
// pattern: the static pivot order, the fill-in positions elimination
// will create, and the flattened elimination schedule the numeric
// phase replays. A Symbolic is immutable after Analyze and safe for
// concurrent use; per-solve state lives in Numeric.
type Symbolic struct {
	n           int
	refactorRel float64

	// Pivot order: step k eliminates matrix row rowOf[k] and column
	// colOf[k]. Solving Ax=b, step k's unknown is x[colOf[k]] and its
	// equation is row rowOf[k].
	rowOf, colOf []int32

	// Lower schedule, CSR-flattened by pivot step: the steps (> k)
	// whose rows hold a structural entry in pivot column k and must be
	// updated during step k's elimination, in ascending step order.
	lowPtr   []int32
	lowSteps []int32

	// Upper schedule, CSR-flattened by pivot step: the matrix columns
	// (> step k in elimination order) where pivot row rowOf[k] holds a
	// structural entry, i.e. the U structure of the row. upSteps holds
	// the owning pivot step of each column, for the substitution
	// passes.
	upPtr   []int32
	upCols  []int32
	upSteps []int32

	// touched lists every structural position (input pattern plus
	// fill-in) as dense row-major offsets, ascending; stamp lists the
	// deduplicated input pattern only. NewNumeric gives every touched
	// position a slot.
	touched []int32
	stamp   []int32

	// Supernode partition of the elimination order: supernode t covers
	// the consecutive steps [snodePtr[t], snodePtr[t+1]). Steps merge
	// when their columns share one sub-pattern below the supernode and
	// their pivot rows share one U structure beyond it — exactly the
	// shape the chained gate stages of MNA matrices produce — which
	// lets the numeric phase eliminate the whole run with dense-block
	// kernels instead of step-at-a-time scatter.
	snodePtr []int32
	snodes   int // supernodes of width >= 2
	maxWidth int // widest supernode (1 when nothing merges, 0 when n == 0)

	fill int
}

// N returns the system size.
func (s *Symbolic) N() int { return s.n }

// Fill returns the number of fill-in positions elimination creates
// beyond the stamped pattern.
func (s *Symbolic) Fill() int { return s.fill }

// NNZ returns the number of structural positions (pattern plus fill).
func (s *Symbolic) NNZ() int { return len(s.touched) }

// Supernodes returns the number of multi-column supernodes (width >= 2)
// the analysis detected; the numeric phase eliminates each with the
// blocked kernel instead of the scalar schedule.
func (s *Symbolic) Supernodes() int { return s.snodes }

// MaxSupernodeWidth returns the width of the widest supernode: 1 when
// no columns merge, 0 for an empty system.
func (s *Symbolic) MaxSupernodeWidth() int { return s.maxWidth }

// maxSupernodeWidth caps how many columns one supernode may absorb:
// wide enough to swallow the repeated gate-stage blocks that occur in
// practice, small enough to bound the numeric phase's packed-multiplier
// scratch.
const maxSupernodeWidth = 32

// mergeable reports whether consecutive elimination steps k and k+1 can
// join one supernode: column k's sub-pattern must be column k+1's plus
// the pivot row of step k+1, and pivot row k's U structure must be
// pivot row k+1's plus the pivot column of step k+1. Chaining the
// pairwise test over a run [k0, k1) then guarantees, by induction, that
// every step k in the run has in-supernode targets exactly {k+1 ..
// k1-1}, exterior targets exactly lowSteps[k1-1], and shared U columns
// exactly upCols[k1-1] — the invariants the blocked kernel replays.
func (s *Symbolic) mergeable(k int) bool {
	lowK := s.lowSteps[s.lowPtr[k]:s.lowPtr[k+1]]
	lowK1 := s.lowSteps[s.lowPtr[k+1]:s.lowPtr[k+2]]
	if !minusOne(lowK, lowK1, int32(k+1)) {
		return false
	}
	upK := s.upCols[s.upPtr[k]:s.upPtr[k+1]]
	upK1 := s.upCols[s.upPtr[k+1]:s.upPtr[k+2]]
	return minusOne(upK, upK1, s.colOf[k+1])
}

// minusOne reports whether a is exactly b with the single element drop
// inserted somewhere, preserving the relative order of the common
// elements (both schedules list targets in ascending matrix order, so
// elementwise comparison suffices).
func minusOne(a, b []int32, drop int32) bool {
	if len(a) != len(b)+1 {
		return false
	}
	dropped := false
	j := 0
	for _, v := range a {
		if !dropped && v == drop {
			dropped = true
			continue
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return dropped
}

// Analyze runs the pilot factorization on a representative matrix a,
// restricted to the given sparsity pattern (dense row-major offsets
// into a.Data; duplicates allowed). Values of a outside the pattern
// are ignored, so a matrix carrying stale garbage off-pattern (e.g.
// after an aborted in-place factorization) analyzes correctly. a
// itself is not modified.
//
// The pilot performs a full Markowitz-ordered elimination on a masked
// copy: at each step it picks, among admissible entries (magnitude at
// least PivotRel of the column maximum), the pivot minimizing
// (r-1)(c-1) for r, c the active row/column counts — ties broken by
// larger magnitude, then lowest row and column index, so the order is
// deterministic. Returns la.ErrSingular if no admissible nonzero pivot
// exists at some step.
func Analyze(a *la.Matrix, pattern []int32, opt Options) (*Symbolic, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: cannot analyze non-square %dx%d matrix", a.Rows, a.Cols)
	}
	opt.defaults()
	n := a.Rows
	nn := n * n

	exists := make([]bool, nn)
	for _, off := range pattern {
		if off < 0 || int(off) >= nn {
			return nil, fmt.Errorf("sparse: pattern offset %d outside %dx%d matrix", off, n, n)
		}
		exists[off] = true
	}
	stamp := make([]int32, 0, len(pattern))
	vals := make([]float64, nn)
	for off := 0; off < nn; off++ {
		if exists[off] {
			stamp = append(stamp, int32(off))
			vals[off] = a.Data[off]
		}
	}

	activeRow := make([]bool, n)
	activeCol := make([]bool, n)
	rowCnt := make([]int, n)
	colCnt := make([]int, n)
	for i := 0; i < n; i++ {
		activeRow[i], activeCol[i] = true, true
	}
	for off, ok := range exists {
		if ok {
			rowCnt[off/n]++
			colCnt[off%n]++
		}
	}

	s := &Symbolic{
		n:           n,
		refactorRel: opt.RefactorRel,
		rowOf:       make([]int32, n),
		colOf:       make([]int32, n),
		lowPtr:      make([]int32, n+1),
		upPtr:       make([]int32, n+1),
		stamp:       stamp,
	}
	// Per-step schedules in matrix coordinates; converted to step
	// indices once the full pivot order is known.
	lowRows := make([][]int32, n)
	upCols := make([][]int32, n)
	colMax := make([]float64, n)

	for k := 0; k < n; k++ {
		// Column maxima over the active submatrix, for admissibility.
		for j := 0; j < n; j++ {
			colMax[j] = 0
		}
		for i := 0; i < n; i++ {
			if !activeRow[i] {
				continue
			}
			base := i * n
			for j := 0; j < n; j++ {
				if activeCol[j] && exists[base+j] {
					if v := math.Abs(vals[base+j]); v > colMax[j] {
						colMax[j] = v
					}
				}
			}
		}
		// Markowitz selection among admissible candidates.
		bestI, bestJ := -1, -1
		bestCost := 0
		bestMag := 0.0
		for i := 0; i < n; i++ {
			if !activeRow[i] {
				continue
			}
			base := i * n
			for j := 0; j < n; j++ {
				if !activeCol[j] || !exists[base+j] {
					continue
				}
				v := math.Abs(vals[base+j])
				if v == 0 || v < opt.PivotRel*colMax[j] {
					continue
				}
				cost := (rowCnt[i] - 1) * (colCnt[j] - 1)
				if bestI < 0 || cost < bestCost || (cost == bestCost && v > bestMag) {
					bestI, bestJ, bestCost, bestMag = i, j, cost, v
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("sparse: no admissible pivot at elimination step %d: %w", k, la.ErrSingular)
		}
		s.rowOf[k], s.colOf[k] = int32(bestI), int32(bestJ)
		activeRow[bestI], activeCol[bestJ] = false, false
		pbase := bestI * n
		// U structure of the pivot row: active columns it touches.
		for j := 0; j < n; j++ {
			if activeCol[j] && exists[pbase+j] {
				upCols[k] = append(upCols[k], int32(j))
			}
		}
		// Row/column counts shrink as the pivot row and column retire.
		for j := 0; j < n; j++ {
			if activeCol[j] && exists[pbase+j] {
				colCnt[j]--
			}
		}
		piv := vals[pbase+bestJ]
		for i := 0; i < n; i++ {
			if !activeRow[i] || !exists[i*n+bestJ] {
				continue
			}
			rowCnt[i]--
			lowRows[k] = append(lowRows[k], int32(i))
			// Numeric elimination of the pilot values, creating fill.
			l := vals[i*n+bestJ] / piv
			base := i * n
			for _, j32 := range upCols[k] {
				j := int(j32)
				if !exists[base+j] {
					exists[base+j] = true
					s.fill++
					rowCnt[i]++
					colCnt[j]++
				}
				vals[base+j] -= float64(l * vals[pbase+j])
			}
		}
	}

	// Matrix coordinates -> elimination steps.
	stepOfRow := make([]int32, n)
	stepOfCol := make([]int32, n)
	for k := 0; k < n; k++ {
		stepOfRow[s.rowOf[k]] = int32(k)
		stepOfCol[s.colOf[k]] = int32(k)
	}
	nLow, nUp := 0, 0
	for k := 0; k < n; k++ {
		nLow += len(lowRows[k])
		nUp += len(upCols[k])
	}
	s.lowSteps = make([]int32, 0, nLow)
	s.upCols = make([]int32, 0, nUp)
	s.upSteps = make([]int32, 0, nUp)
	for k := 0; k < n; k++ {
		s.lowPtr[k] = int32(len(s.lowSteps))
		for _, r := range lowRows[k] {
			s.lowSteps = append(s.lowSteps, stepOfRow[r])
		}
		s.upPtr[k] = int32(len(s.upCols))
		for _, c := range upCols[k] {
			s.upCols = append(s.upCols, c)
			s.upSteps = append(s.upSteps, stepOfCol[c])
		}
	}
	s.lowPtr[n] = int32(len(s.lowSteps))
	s.upPtr[n] = int32(len(s.upCols))

	s.touched = make([]int32, 0, len(stamp)+s.fill)
	for off := 0; off < nn; off++ {
		if exists[off] {
			s.touched = append(s.touched, int32(off))
		}
	}

	// Supernode partition: greedy maximal runs of pairwise-mergeable
	// steps, width-capped. Runs of length one are singleton supernodes
	// and keep the scalar schedule.
	s.snodePtr = make([]int32, 1, n+1)
	for k := 0; k < n; {
		k1 := k + 1
		for k1 < n && k1-k < maxSupernodeWidth && s.mergeable(k1-1) {
			k1++
		}
		if w := k1 - k; w > s.maxWidth {
			s.maxWidth = w
		}
		if k1-k >= 2 {
			s.snodes++
		}
		s.snodePtr = append(s.snodePtr, int32(k1))
		k = k1
	}
	// Lower entries in step order put each supernode step's in-block
	// targets first. Rows update independently, so the order changes
	// no value.
	for k := 0; k < n; k++ {
		slices.Sort(s.lowSteps[s.lowPtr[k]:s.lowPtr[k+1]])
	}
	return s, nil
}

// Numeric is the numeric phase of one Symbolic compiled against one
// packed value layout, plus its per-solver mutable state: the hoisted
// pivot reciprocals, the permuted solution workspace and the blocked
// kernel's multiplier scratch. Every schedule entry is a slot of the
// caller's value array, so a refactor reads and writes only the packed
// values and never forms a row-major address. One Numeric serves one
// solver goroutine; compile more with NewNumeric for concurrent use of
// the same Symbolic.
type Numeric struct {
	s     *Symbolic
	slots int // value slots the layout spans, fill included

	// Compiled schedules. piv[k] is the slot of step k's pivot; up is
	// aligned with s.upCols (the U slots of each pivot row); low is
	// aligned with s.lowSteps (the L slot of each (step, lower row)
	// entry). The i-th lower entry of step k updates the slots of its
	// row in the U columns of k, which tgt holds from tgtOff[k] +
	// i*len(U(k)) on, in the order of up.
	piv, up, low, tgt, tgtOff []int32

	// Supernode tables, indexed by supernode t (empty for singletons).
	// blk[blkPtr[t]:blkPtr[t+1]] holds the w×w in-block U slots (pivot
	// row j, column of step jj > j; row-major in the block, -1 on and
	// below the diagonal), then each pivot row's slots in the shared
	// trailing columns, w rows of nsh. ext[extPtr[t]:extPtr[t+1]] holds
	// each exterior row's w L slots, in the order of the last step's
	// lower entries.
	blk, blkPtr, ext, extPtr []int32

	recip []float64
	xw    []float64
	// Blocked-kernel scratch: the packed nonzero multipliers of one
	// exterior row against one supernode, and the offsets in blk of
	// their pivot rows' shared-column slots.
	lv   []float64
	lsrc []int32
}

// NewNumeric compiles s against the caller's packed value layout and
// returns a numeric-phase workspace for it. layout[i] is the dense
// row-major position (row*n + col) held in slot i of the caller's
// value array, or negative for a slot the factorization never touches
// (a trash cell absorbing writes to a grounded row, say). Positions the
// analysis does not schedule are likewise never touched. Every
// position of the analyzed pattern needs exactly one slot; fill
// positions without one get the slots len(layout), len(layout)+1, …
// in ascending position order. Value arrays passed to FactorSolve span
// Slots() entries, with zeros in the fill slots.
func (s *Symbolic) NewNumeric(layout []int32) (*Numeric, error) {
	n := s.n
	slot := make(map[int32]int32, len(s.touched))
	for i, off := range layout {
		if off < 0 {
			continue
		}
		if int(off) >= n*n {
			return nil, fmt.Errorf("sparse: layout position %d outside %dx%d matrix", off, n, n)
		}
		if _, dup := slot[off]; dup {
			return nil, fmt.Errorf("sparse: layout holds position %d twice", off)
		}
		slot[off] = int32(i)
	}
	for _, off := range s.stamp {
		if _, ok := slot[off]; !ok {
			return nil, fmt.Errorf("sparse: layout has no slot for pattern position %d", off)
		}
	}
	slots := len(layout)
	for _, off := range s.touched {
		if _, ok := slot[off]; !ok {
			slot[off] = int32(slots)
			slots++
		}
	}
	at := func(r, c int32) int32 { return slot[r*int32(n)+c] }

	nu := &Numeric{
		s:      s,
		slots:  slots,
		piv:    make([]int32, n),
		up:     make([]int32, len(s.upCols)),
		low:    make([]int32, len(s.lowSteps)),
		tgtOff: make([]int32, n),
		blkPtr: make([]int32, len(s.snodePtr)),
		extPtr: make([]int32, len(s.snodePtr)),
		recip:  make([]float64, n),
		xw:     make([]float64, n),
		lv:     make([]float64, s.maxWidth),
		lsrc:   make([]int32, s.maxWidth),
	}
	for k := 0; k < n; k++ {
		nu.piv[k] = at(s.rowOf[k], s.colOf[k])
		up := s.upCols[s.upPtr[k]:s.upPtr[k+1]]
		for p, c := range up {
			nu.up[int(s.upPtr[k])+p] = at(s.rowOf[k], c)
		}
		nu.tgtOff[k] = int32(len(nu.tgt))
		for e := s.lowPtr[k]; e < s.lowPtr[k+1]; e++ {
			r := s.rowOf[s.lowSteps[e]]
			nu.low[e] = at(r, s.colOf[k])
			for _, c := range up {
				nu.tgt = append(nu.tgt, at(r, c))
			}
		}
	}
	for t := 0; t+1 < len(s.snodePtr); t++ {
		nu.blkPtr[t], nu.extPtr[t] = int32(len(nu.blk)), int32(len(nu.ext))
		k0, k1 := s.snodePtr[t], s.snodePtr[t+1]
		if k1-k0 < 2 {
			continue
		}
		for j := k0; j < k1; j++ {
			for jj := k0; jj < k1; jj++ {
				u := int32(-1)
				if jj > j {
					u = at(s.rowOf[j], s.colOf[jj])
				}
				nu.blk = append(nu.blk, u)
			}
		}
		shared := s.upCols[s.upPtr[k1-1]:s.upPtr[k1]]
		for j := k0; j < k1; j++ {
			for _, c := range shared {
				nu.blk = append(nu.blk, at(s.rowOf[j], c))
			}
		}
		for _, si := range s.lowSteps[s.lowPtr[k1-1]:s.lowPtr[k1]] {
			for j := k0; j < k1; j++ {
				nu.ext = append(nu.ext, at(s.rowOf[si], s.colOf[j]))
			}
		}
	}
	last := len(s.snodePtr) - 1
	nu.blkPtr[last], nu.extPtr[last] = int32(len(nu.blk)), int32(len(nu.ext))
	return nu, nil
}

// Slots returns the number of value slots the compiled layout spans:
// the caller's layout plus the appended fill slots.
func (nu *Numeric) Slots() int { return nu.slots }

// check validates the operand sizes of one factor+solve.
func (nu *Numeric) check(v, x, b []float64) error {
	if len(v) < nu.slots {
		return fmt.Errorf("sparse: %d values for a layout of %d slots", len(v), nu.slots)
	}
	if n := nu.s.n; len(x) != n || len(b) != n {
		return fmt.Errorf("sparse: slice lengths (%d, %d) do not match system size %d", len(x), len(b), n)
	}
	return nil
}

// FactorSolve refactors the packed values v over the analyzed pattern
// and solves a·x = b in the same sweep, replaying the compiled
// elimination schedule with the static pivot order. Supernodes
// eliminate through the blocked kernel, singleton steps through the
// scalar schedule; the two produce bit-identical factors, reciprocals
// and solutions (see stepBlocked for the argument). v is modified in
// place (its scheduled slots come to hold the LU factors); every other
// slot is neither read nor written, so trash and unused slots may hold
// anything. b is not modified; x and b must have length n and may
// alias each other. The call performs no allocations.
//
// Each pivot is guarded: if its magnitude falls below RefactorRel
// times the largest magnitude in its updated row, FactorSolve returns
// ErrPivot with v partially clobbered — re-stamp, solve densely, and
// re-Analyze before retrying the sparse path. The failing step is the
// same one the scalar schedule would fail on, though the partial
// clobber left behind may differ.
//
// "Performs no allocations" is enforced statically by hybridlint's
// noalloc analyzer (this annotation) and dynamically by CI's "enforce
// zero-allocation sparse numeric refactor" gate on every size row of
// BenchmarkSparseFactorSolve's -benchmem allocs/op.
//
//hybrid:noalloc
func (nu *Numeric) FactorSolve(v, x, b []float64) error {
	if err := nu.check(v, x, b); err != nil {
		return err
	}
	s := nu.s
	nu.gather(b)
	for t := 0; t < len(s.snodePtr)-1; t++ {
		k0, k1 := int(s.snodePtr[t]), int(s.snodePtr[t+1])
		var err error
		if k1-k0 == 1 {
			err = nu.stepScalar(v, k0)
		} else {
			err = nu.stepBlocked(v, t, k0, k1)
		}
		if err != nil {
			return err
		}
	}
	nu.backSolve(v, x)
	return nil
}

// gather permutes the RHS into elimination order.
func (nu *Numeric) gather(b []float64) {
	for k, r := range nu.s.rowOf {
		nu.xw[k] = b[r]
	}
}

// step guards step k's pivot against its row's current magnitudes,
// stores its reciprocal and applies the step to its lower entries
// [lowPtr[k], e1): each row's multiplier replaces its L entry, and a
// nonzero one updates the row's U-column slots and its permuted RHS
// entry.
func (nu *Numeric) step(v []float64, k int, e1 int32) error {
	s := nu.s
	up := nu.up[s.upPtr[k]:s.upPtr[k+1]]
	piv := v[nu.piv[k]]
	rmax := math.Abs(piv)
	for _, u := range up {
		if a := math.Abs(v[u]); a > rmax {
			rmax = a
		}
	}
	if piv == 0 || math.Abs(piv) < s.refactorRel*rmax {
		return ErrPivot
	}
	r := 1 / piv
	nu.recip[k] = r
	xw, xk := nu.xw, nu.xw[k]
	tgt := nu.tgt[nu.tgtOff[k]:]
	for e := s.lowPtr[k]; e < e1; e++ {
		ls := nu.low[e]
		l := v[ls] * r
		v[ls] = l
		if l != 0 {
			tg := tgt[:len(up)]
			for i, u := range up {
				v[tg[i]] -= float64(l * v[u])
			}
			xw[s.lowSteps[e]] -= float64(l * xk)
		}
		tgt = tgt[len(up):]
	}
	return nil
}

// stepScalar replays one singleton elimination step: the scalar
// schedule, and the reference the blocked kernel must match
// bit-for-bit.
func (nu *Numeric) stepScalar(v []float64, k int) error {
	return nu.step(v, k, nu.s.lowPtr[k+1])
}

// stepBlocked eliminates supernode t, covering steps [k0, k1), in two
// phases. Phase A factors the diagonal block: each step runs its exact
// scalar body restricted to the in-supernode target rows (by the
// supernode invariant those are precisely steps k+1 .. k1-1, the first
// k1-1-k of its lower entries in step order), so every guard value,
// reciprocal, pivot-row entry and permuted-RHS entry a later read
// consumes is bit-identical to the scalar sweep — exterior rows never
// write pivot rows, so deferring them cannot perturb this phase. Phase
// B then processes each exterior row once against the whole block: its
// multipliers are computed sequentially in step order (each after the
// in-block column updates of the previous steps, exactly as the scalar
// schedule interleaves them), zero multipliers are skipped just as the
// scalar `l != 0` test skips them (skipping is load-bearing for
// bit-identity: updating with a zero multiplier could still flip a
// signed zero or propagate a non-finite pivot-row value), and the
// surviving multipliers apply to the shared trailing columns as an
// unrolled rank-k update. Per slot the update sequence is the scalar
// one — same multiplier values, same pivot-row values, same step order,
// every product rounded on its own before it is subtracted, in both
// kernels — only the interleaving across distinct slots changes, which
// floating-point cannot observe.
//
//hybrid:noalloc
func (nu *Numeric) stepBlocked(v []float64, t, k0, k1 int) error {
	s := nu.s
	xw := nu.xw
	// Phase A: diagonal block.
	for k := k0; k < k1; k++ {
		if err := nu.step(v, k, s.lowPtr[k]+int32(k1-1-k)); err != nil {
			return err
		}
	}
	// Phase B: exterior rows. The supernode invariant makes the last
	// step's schedules the shared ones: its lower entries are exactly
	// the rows below the supernode, and its U columns exactly the
	// trailing columns every step in the block updates beyond the block
	// itself — so an exterior row's targets under the last step are its
	// shared-column slots.
	w := k1 - k0
	ext := s.lowSteps[s.lowPtr[k1-1]:s.lowPtr[k1]]
	nsh := int(s.upPtr[k1] - s.upPtr[k1-1])
	blk := nu.blk[nu.blkPtr[t]:nu.blkPtr[t+1]]
	lsl := nu.ext[nu.extPtr[t]:nu.extPtr[t+1]]
	shTgt := nu.tgt[nu.tgtOff[k1-1]:]
	recip := nu.recip[k0:k1]
	lv, lsrc := nu.lv, nu.lsrc
	for e, si := range ext {
		ls := lsl[e*w : e*w+w]
		tg := shTgt[e*nsh : e*nsh+nsh]
		na := 0
		for j := 0; j < w; j++ {
			l := v[ls[j]] * recip[j]
			v[ls[j]] = l
			if l != 0 {
				ub := blk[j*w : j*w+w]
				for jj := j + 1; jj < w; jj++ {
					v[ls[jj]] -= float64(l * v[ub[jj]])
				}
				xw[si] -= float64(l * xw[k0+j])
				lv[na] = l
				lsrc[na] = int32(w*w + j*nsh)
				na++
			}
		}
		// Fused trailing update over the shared columns, unrolled in
		// chunks of four. Chunks apply in packing (= step) order, so
		// each slot still sees its multipliers in the scalar sequence.
		a := 0
		for ; a+4 <= na; a += 4 {
			l0, l1, l2, l3 := lv[a], lv[a+1], lv[a+2], lv[a+3]
			r0 := blk[lsrc[a] : int(lsrc[a])+nsh]
			r1 := blk[lsrc[a+1] : int(lsrc[a+1])+nsh]
			r2 := blk[lsrc[a+2] : int(lsrc[a+2])+nsh]
			r3 := blk[lsrc[a+3] : int(lsrc[a+3])+nsh]
			for i, c := range tg {
				x := v[c]
				x -= float64(l0 * v[r0[i]])
				x -= float64(l1 * v[r1[i]])
				x -= float64(l2 * v[r2[i]])
				x -= float64(l3 * v[r3[i]])
				v[c] = x
			}
		}
		switch na - a {
		case 3:
			l0, l1, l2 := lv[a], lv[a+1], lv[a+2]
			r0 := blk[lsrc[a] : int(lsrc[a])+nsh]
			r1 := blk[lsrc[a+1] : int(lsrc[a+1])+nsh]
			r2 := blk[lsrc[a+2] : int(lsrc[a+2])+nsh]
			for i, c := range tg {
				x := v[c]
				x -= float64(l0 * v[r0[i]])
				x -= float64(l1 * v[r1[i]])
				x -= float64(l2 * v[r2[i]])
				v[c] = x
			}
		case 2:
			l0, l1 := lv[a], lv[a+1]
			r0 := blk[lsrc[a] : int(lsrc[a])+nsh]
			r1 := blk[lsrc[a+1] : int(lsrc[a+1])+nsh]
			for i, c := range tg {
				x := v[c]
				x -= float64(l0 * v[r0[i]])
				x -= float64(l1 * v[r1[i]])
				v[c] = x
			}
		case 1:
			l0 := lv[a]
			r0 := blk[lsrc[a] : int(lsrc[a])+nsh]
			for i, c := range tg {
				v[c] -= float64(l0 * v[r0[i]])
			}
		}
	}
	return nil
}

// backSolve runs the back substitution over the U schedule (divisions
// hoisted into the stored reciprocals) and scatters the solution to
// natural unknown order.
func (nu *Numeric) backSolve(v, x []float64) {
	s := nu.s
	xw := nu.xw
	for k := s.n - 1; k >= 0; k-- {
		up := nu.up[s.upPtr[k]:s.upPtr[k+1]]
		us := s.upSteps[s.upPtr[k]:s.upPtr[k+1]]
		us = us[:len(up)]
		sum := xw[k]
		for t, u := range up {
			sum -= float64(v[u] * xw[us[t]])
		}
		xw[k] = sum * nu.recip[k]
	}
	for k, c := range s.colOf {
		x[c] = xw[k]
	}
}

// factorSolveScalar is the pre-supernodal refactor, kept as the
// bit-identity reference: FactorSolve must produce exactly the same LU
// values, reciprocals and solution, and fail on exactly the same step.
// Exercised by the property tests and the supernode fuzz target only.
func (nu *Numeric) factorSolveScalar(v, x, b []float64) error {
	if err := nu.check(v, x, b); err != nil {
		return err
	}
	nu.gather(b)
	for k := 0; k < nu.s.n; k++ {
		if err := nu.stepScalar(v, k); err != nil {
			return err
		}
	}
	nu.backSolve(v, x)
	return nil
}
