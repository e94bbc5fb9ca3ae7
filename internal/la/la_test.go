package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refLU is the reference FactorSolveInPlace is checked against: the
// classic two-pass partial-pivot LU, which factors a copy of the
// matrix into packed L and U plus a row permutation, then permutes the
// right-hand side and runs forward and back substitution.
type refLU struct {
	n   int
	lu  []float64
	piv []int
}

// refFactor factors a copy of the square matrix a.
func refFactor(a *Matrix) (*refLU, error) {
	n := a.Rows
	f := &refLU{n: n, lu: append([]float64(nil), a.Data...), piv: make([]int, n)}
	lu, piv := f.lu, f.piv
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// The first strict maximum of |a[i][k]| over rows k..n-1;
		// column 0 is seeded with row 0, later columns with zero.
		p, max, start := k, 0.0, k
		if k == 0 {
			max, start = math.Abs(lu[0]), 1
		}
		for i := start; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				max, p = v, i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l != 0 {
				for j := k + 1; j < n; j++ {
					lu[i*n+j] -= float64(l * lu[k*n+j])
				}
			}
		}
	}
	return f, nil
}

// solve returns x with A*x = b.
func (f *refLU) solve(b []float64) ([]float64, error) {
	n, lu := f.n, f.lu
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= float64(lu[i*n+j] * x[j])
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= float64(lu[i*n+j] * x[j])
		}
		d := lu[i*n+i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// refSolve solves a*x = b with the reference; a is not modified.
func refSolve(a *Matrix, b []float64) ([]float64, error) {
	f, err := refFactor(a)
	if err != nil {
		return nil, err
	}
	return f.solve(b)
}

// solve runs FactorSolveInPlace on a copy of a.
func solve(a *Matrix, b []float64) ([]float64, error) {
	var f LU
	x := make([]float64, len(b))
	if err := f.FactorSolveInPlace(a.Clone(), x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// sameBits reports whether two solutions agree bit for bit.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("unexpected dims %dx%d", m.Rows, m.Cols)
	}
	m.Set(0, 1, 4)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 6 {
		t.Errorf("At(0,1) = %g, want 6", got)
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 6 {
		t.Error("Clone aliases the original data")
	}
	if s := c.String(); s == "" {
		t.Error("String returned empty")
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := solve(a, []float64{1, 1}); err == nil {
		t.Error("expected singular-matrix error")
	}
}

func TestLUNonSquare(t *testing.T) {
	var f LU
	if err := f.FactorSolveInPlace(NewMatrix(2, 3), make([]float64, 2), make([]float64, 2)); err == nil {
		t.Error("expected error for non-square factorization")
	}
}

func TestLUSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonally dominant => well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			for j, w := range want {
				b[i] += a.At(i, j) * w
			}
		}
		got, err := solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFactorSolveInPlaceBitIdentical: one LU workspace, reused across
// systems of growing and shrinking size, leaves exactly the reference's
// factors in the matrix and returns exactly its solution; a second LU
// with the system's pattern set learns its pivot sequence and then
// replays it to the same bits. Matrices mix dense and MNA-like sparse
// patterns (zeros below the diagonal force both row swaps and zero
// multipliers, the paths that could plausibly diverge).
func TestFactorSolveInPlaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var fused, patterned LU
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		sparse := trial%2 == 1
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sparse && i != j && rng.Float64() < 0.5 {
					continue // leave zero
				}
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref, err := refFactor(a)
		if err != nil {
			t.Fatalf("trial %d: reference factor: %v", trial, err)
		}
		wantX, err := ref.solve(b)
		if err != nil {
			t.Fatalf("trial %d: reference solve: %v", trial, err)
		}

		m := a.Clone()
		gotX := make([]float64, n)
		if err := fused.FactorSolveInPlace(m, gotX, b); err != nil {
			t.Fatalf("trial %d: FactorSolveInPlace: %v", trial, err)
		}
		if !sameBits(m.Data, ref.lu) {
			t.Fatalf("trial %d: factors = %v, want %v", trial, m.Data, ref.lu)
		}
		if !sameBits(gotX, wantX) {
			t.Fatalf("trial %d: x = %v, want %v", trial, gotX, wantX)
		}

		patterned.SetPattern(n, mnaPatternOf(a))
		for call := 0; call < 3; call++ {
			if err := patterned.FactorSolveInPlace(a.Clone(), gotX, b); err != nil {
				t.Fatalf("trial %d call %d: patterned FactorSolveInPlace: %v", trial, call, err)
			}
			if !sameBits(gotX, wantX) {
				t.Fatalf("trial %d call %d: patterned x = %v, want %v", trial, call, gotX, wantX)
			}
		}
		if st := patterned.ReplayStats(); st.Learned != 1 || st.Replayed != 2 {
			t.Fatalf("trial %d: replay stats %+v, want one learned sequence and two replays", trial, st)
		}
	}
}

// TestFactorSolveInPlaceSingular: singular systems and mismatched
// shapes are reported as errors.
func TestFactorSolveInPlaceSingular(t *testing.T) {
	bad := NewMatrix(2, 2)
	bad.Set(0, 0, 1)
	bad.Set(0, 1, 2)
	bad.Set(1, 0, 2)
	bad.Set(1, 1, 4)
	var f LU
	x := make([]float64, 2)
	if err := f.FactorSolveInPlace(bad, x, []float64{1, 2}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
	if err := f.FactorSolveInPlace(NewMatrix(2, 3), x, []float64{1, 2}); err == nil {
		t.Error("expected error for non-square matrix")
	}
	if err := f.FactorSolveInPlace(NewMatrix(2, 2), x[:1], []float64{1, 2}); err == nil {
		t.Error("expected error for mismatched x length")
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := NormInf(v); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Errorf("NormInf(nil) = %g, want 0", got)
	}
}

// TestLUPermutationProperty: solving with a permuted identity recovers
// the permutation.
func TestLUPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		perm := rng.Perm(n)
		a := NewMatrix(n, n)
		for i, p := range perm {
			a.Set(i, p, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i + 1)
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		// a*x = b  =>  x[perm[i]] = b[i].
		for i, p := range perm {
			if math.Abs(x[p]-b[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLUOneByOne pins the degenerate n=1 system: a solve and the
// exactly singular 1x1 zero matrix.
func TestLUOneByOne(t *testing.T) {
	a := NewMatrix(1, 1)
	a.Set(0, 0, 4)
	var lu LU
	y := make([]float64, 1)
	if err := lu.FactorSolveInPlace(a, y, []float64{12}); err != nil {
		t.Fatalf("FactorSolveInPlace: %v", err)
	}
	if y[0] != 3 {
		t.Fatalf("FactorSolveInPlace x = %g, want 3", y[0])
	}
	z := NewMatrix(1, 1)
	if err := lu.FactorSolveInPlace(z, y, []float64{1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorSolveInPlace(zero 1x1) error = %v, want ErrSingular", err)
	}
}
