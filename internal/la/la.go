// Package la provides the small dense linear-algebra kernels used by the
// analog simulator and the hybrid ODE model: dense LU factorization with
// partial pivoting, fused with the solve, for the modified-nodal-analysis
// (MNA) systems, and closed-form eigen-decomposition for the 2x2
// systems that govern the hybrid NOR model.
//
// Circuit matrices in this repository are tiny (a handful of nodes to a
// few dozen) but factored millions of times per golden run, with the
// same structure and almost always the same pivot sequence. The dense
// LU therefore keeps a plain O(n^3) partial-pivot kernel as the
// reference and, given the structural pattern (LU.SetPattern), replays
// a learned pivot schedule that skips the structurally zero positions
// while staying bit-identical to the plain kernel. Larger systems use
// the static-pivot sparse LU in the sparse subpackage.
package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a matrix is numerically singular.
var ErrSingular = errors.New("la: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("la: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .6g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// LU is the workspace of FactorSolveInPlace: partial-pivot LU
// factorization fused with the solve, plus the pivot schedules it
// learns once a structural pattern is set (SetPattern).
type LU struct {
	n  int
	lu []float64 // the matrix being factored: packed L (unit diagonal, below) and U (on/above diagonal)

	rp replayState // learned pivot schedules (SetPattern)
}

// FactorSolveInPlace factors a in place by partial-pivot Gaussian
// elimination and solves a*x = b in the same sweep, carrying the
// right-hand side through the elimination. a is destroyed; b is not
// modified; x and b must have length n and may not alias. Pivoting
// takes the first strict maximum of |a[i][k]| among rows k..n-1, and
// row swaps move the carried entries exactly as a pivot permutation
// would; each x[i] receives the forward-substitution subtractions
// l*x[k] for k = 0..i-1 in ascending order, each x[k] being final by
// the time it is used (rows at or above the elimination front are
// never swapped again). The result is therefore bit-for-bit that of a
// separate factorization followed by permutation, forward and back
// substitution, without their extra walks over the system.
//
// With a structural pattern set (SetPattern) for this size, the call
// replays a learned pivot schedule instead where it can (see replay.go);
// x and the returned error are the same bit for bit, but the factors
// are then left in a's original row order.
//
// Allocation-free in the steady state (only learning a new pivot
// sequence allocates): enforced statically by hybridlint's noalloc
// analyzer and dynamically by CI's BenchmarkSolverNewton -benchmem
// gate, which drives this function every iteration.
//
//hybrid:noalloc
func (f *LU) FactorSolveInPlace(a *Matrix, x, b []float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: cannot factor non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n || len(x) != n {
		return fmt.Errorf("la: slice lengths (%d, %d) do not match system size %d", len(x), len(b), n)
	}
	f.n, f.lu = n, a.Data
	k := 0
	if f.rp.replayable(n, b) {
		var done bool
		var err error
		if k, done, err = f.replay(x, b); done {
			return err
		}
	} else {
		copy(x, b)
	}
	if err := f.eliminate(k, x); err != nil {
		return err
	}
	f.adopt()
	return nil
}

// eliminate runs the fused partial-pivot elimination from column k0 to
// the end, then back-substitutes. lu and x must hold the state the
// elimination reached at the start of column k0; k0 = 0 is the plain
// kernel. The pivot sequence it chooses is recorded for learning.
func (f *LU) eliminate(k0 int, x []float64) error {
	n, lu := f.n, f.lu
	// The column-k0 pivot search; every later column's search is fused
	// into the elimination pass below, walking the same candidate rows
	// in the same order with the same strict ">" comparison. Column 0
	// seeds the maximum with row 0's magnitude (so a NaN there is kept
	// as the pivot); later columns start from zero at the first
	// candidate row, exactly as the fused search does.
	p, max, start := k0, 0.0, k0
	if k0 == 0 {
		max, start = math.Abs(lu[0]), 1
	}
	for i := start; i < n; i++ {
		if v := math.Abs(lu[i*n+k0]); v > max {
			max, p = v, i
		}
	}
	for k := k0; k < n; k++ {
		if max == 0 {
			return ErrSingular
		}
		f.rp.record(k, p)
		if p != k {
			rp, rk := lu[p*n:p*n+n], lu[k*n:k*n+n]
			for j := range rk {
				rp[j], rk[j] = rk[j], rp[j]
			}
			x[p], x[k] = x[k], x[p]
		}
		pivot := lu[k*n+k]
		// Slicing the row tails lets the compiler drop the bounds checks
		// in the elimination kernel; the arithmetic (and its order) is
		// exactly the classic in-place update.
		rowK := lu[k*n+k+1 : k*n+n]
		xk := x[k]
		nextP, nextMax := k+1, 0.0
		for i := k + 1; i < n; i++ {
			rowI := lu[i*n+k : i*n+n]
			l := rowI[0] / pivot
			rowI[0] = l
			if l != 0 {
				tail := rowI[1:]
				tail = tail[:len(rowK)]
				for j, rk := range rowK {
					tail[j] -= float64(l * rk)
				}
			}
			// Unconditional, as a separate forward substitution would
			// be (it does not skip zero multipliers).
			x[i] -= float64(l * xk)
			// rowI[1] is this row's entry in column k+1, now final.
			if v := math.Abs(rowI[1]); v > nextMax {
				nextMax, nextP = v, i
			}
		}
		p, max = nextP, nextMax
	}
	return f.backSubstitute(n-1, x)
}

// backSubstitute finishes x from row i0 down to row 0 over the packed
// U.
func (f *LU) backSubstitute(i0 int, x []float64) error {
	n, lu := f.n, f.lu
	for i := i0; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : i*n+n]
		tail := row[i+1:]
		xt := x[i+1:]
		xt = xt[:len(tail)]
		for j, rv := range tail {
			s -= float64(rv * xt[j])
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// NormInf returns the maximum-magnitude entry of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
