// Package la provides the small dense linear-algebra kernels used by the
// analog simulator and the hybrid ODE model: dense LU factorization with
// partial pivoting for the modified-nodal-analysis (MNA) systems, and
// closed-form eigen-decomposition and matrix exponentials for the 2x2
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

// Zero resets all entries to zero, retaining the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

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

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above diagonal)
	buf  []float64 // owned backing storage for lu (FactorInto); FactorInPlace aliases the caller's matrix instead
	piv  []int
	sign int

	rp replayState // learned pivot schedules (SetPattern)
}

// Factor computes the LU factorization of the square matrix a.
// The input matrix is not modified.
func Factor(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto computes the LU factorization of the square matrix a into
// f, reusing f's packed-LU and pivot buffers when the size matches.
// Repeated factorizations of same-sized systems (the MNA Newton loop)
// therefore allocate nothing after the first call. The input matrix is
// not modified. On error f is left invalid and must be refactored
// before use.
func (f *LU) FactorInto(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: cannot factor non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if cap(f.buf) < n*n {
		f.buf = make([]float64, n*n)
	} else {
		f.buf = f.buf[:n*n]
	}
	copy(f.buf, a.Data)
	f.lu = f.buf
	return f.factor(n)
}

// FactorInPlace factors the square matrix a directly in a's storage,
// which the factorization then aliases: a is destroyed, and the
// factorization is only valid until a's data is next modified. It is
// the zero-copy variant for callers that rebuild a from scratch anyway
// (the Newton loop re-stamps its Jacobian every iteration); pivoting
// and elimination are identical to FactorInto, so the factors are
// bit-for-bit the same. On error f is left invalid and a is clobbered.
func (f *LU) FactorInPlace(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: cannot factor non-square %dx%d matrix", a.Rows, a.Cols)
	}
	f.lu = a.Data
	return f.factor(a.Rows)
}

// FactorSolveInPlace factors a in place (with FactorInPlace semantics:
// a is destroyed and the factorization aliases its storage) and solves
// a*x = b in the same sweep, carrying the right-hand side through the
// elimination. b is not modified; x and b must have length n and may
// not alias. The result is bit-for-bit identical to FactorInPlace
// followed by SolveInto: row swaps move the carried entries exactly as
// the pivot permutation would, and each x[i] receives the forward-
// substitution subtractions l*x[k] for k = 0..i-1 in the same
// ascending order, each x[k] being final by the time it is used (rows
// at or above the elimination front are never swapped again). Fusing
// the passes saves a separate permute + forward-substitution walk per
// solve, which matters in the Newton inner loop.
//
// With a structural pattern set (SetPattern) for this size, the call
// replays a learned pivot schedule instead where it can (see replay.go);
// x and the returned error are the same bit for bit. A replayed solve
// leaves the factors in a's original row order, so f then keeps no
// reusable factorization.
//
// Allocation-free in the steady state (the pivot workspace grows once
// per size, and only learning a new pivot sequence allocates):
// enforced statically by hybridlint's noalloc analyzer and dynamically
// by CI's BenchmarkSolverNewton -benchmem gate, which drives this
// function every iteration.
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
	f.lu = a.Data
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	} else {
		f.piv = f.piv[:n]
	}
	f.n = n
	k := 0
	if f.rp.replayable(n, b) {
		var done bool
		var err error
		if k, done, err = f.replay(x, b); done {
			return err
		}
	} else {
		copy(x, b)
		f.sign = 1
		for i := range f.piv {
			f.piv[i] = i
		}
	}
	if err := f.eliminate(k, x); err != nil {
		return err
	}
	f.adopt()
	return nil
}

// eliminate runs the fused partial-pivot elimination from column k0 to
// the end, then back-substitutes. lu, x, piv and sign must hold the
// state the elimination reached at the start of column k0; k0 = 0 is
// the plain kernel. The pivot sequence it chooses is recorded for
// learning.
func (f *LU) eliminate(k0 int, x []float64) error {
	n, lu, piv := f.n, f.lu, f.piv
	// The column-k0 pivot search; every later column's search is fused
	// into the elimination pass below. Column 0 seeds the maximum with
	// row 0's magnitude (so a NaN there is kept as the pivot); later
	// columns start from zero at the first candidate row, exactly as
	// the fused search does.
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
			f.n = 0
			return ErrSingular
		}
		f.rp.record(k, p)
		if p != k {
			rp, rk := lu[p*n:p*n+n], lu[k*n:k*n+n]
			for j := range rk {
				rp[j], rk[j] = rk[j], rp[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			x[p], x[k] = x[k], x[p]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
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
					tail[j] -= l * rk
				}
			}
			// Unconditional, matching SolveInto's forward substitution
			// (which does not skip zero multipliers).
			x[i] -= l * xk
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
// U, exactly SolveInto's final pass.
func (f *LU) backSubstitute(i0 int, x []float64) error {
	n, lu := f.n, f.lu
	for i := i0; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : i*n+n]
		tail := row[i+1:]
		xt := x[i+1:]
		xt = xt[:len(tail)]
		for j, rv := range tail {
			s -= rv * xt[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// factor runs partial-pivot Gaussian elimination on the packed matrix
// already placed in f.lu.
func (f *LU) factor(n int) error {
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	} else {
		f.piv = f.piv[:n]
	}
	f.n, f.sign = n, 1
	lu, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	// Partial pivoting: the largest magnitude in column k among rows
	// k..n-1. The column-k scan for k = 0 seeds it; every later column's
	// scan is fused into the elimination pass below, which walks exactly
	// the candidate rows in the same order with the same strict ">"
	// comparison (first maximum wins), so the pivot sequence is
	// identical to a separate search.
	p := 0
	max := math.Abs(lu[0])
	for i := 1; i < n; i++ {
		if v := math.Abs(lu[i*n]); v > max {
			max, p = v, i
		}
	}
	for k := 0; k < n; k++ {
		if max == 0 {
			f.n = 0
			return ErrSingular
		}
		if p != k {
			rp, rk := lu[p*n:p*n+n], lu[k*n:k*n+n]
			for j := range rk {
				rp[j], rk[j] = rk[j], rp[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		// Slicing the row tails lets the compiler drop the bounds checks
		// in the elimination kernel; the arithmetic (and its order) is
		// exactly the classic in-place update.
		rowK := lu[k*n+k+1 : k*n+n]
		nextP, nextMax := k+1, 0.0
		for i := k + 1; i < n; i++ {
			rowI := lu[i*n+k : i*n+n]
			l := rowI[0] / pivot
			rowI[0] = l
			if l != 0 {
				tail := rowI[1:]
				tail = tail[:len(rowK)]
				for j, rk := range rowK {
					tail[j] -= l * rk
				}
			}
			// rowI[1] is this row's entry in column k+1, now final.
			if v := math.Abs(rowI[1]); v > nextMax {
				nextMax, nextP = v, i
			}
		}
		p, max = nextP, nextMax
	}
	return nil
}

// Solve solves A*x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("la: rhs length %d does not match system size %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A*x = b, writing the solution into x. x and b must have
// length n and may not alias.
func (f *LU) SolveInto(x, b []float64) error {
	n := f.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("la: slice lengths (%d, %d) do not match system size %d", len(x), len(b), n)
	}
	lu, piv := f.lu, f.piv
	// Apply permutation.
	for i, p := range piv {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu[i*n : i*n+i]
		xj := x[:len(row)]
		for j, l := range row {
			s -= l * xj[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : i*n+n]
		tail := row[i+1:]
		xt := x[i+1:]
		xt = xt[:len(tail)]
		for j, rv := range tail {
			s -= rv * xt[j]
		}
		d := row[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveDense factors a and solves a*x = b in one call. For repeated solves
// with the same matrix, use Factor once and call Solve.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// MatVec computes y = A*x for a dense matrix.
func MatVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("la: dimension mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
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
