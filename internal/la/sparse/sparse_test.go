package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybriddelay/internal/la"
)

// randomSystem builds an n×n matrix with a random sparsity pattern and
// a dominant diagonal (guaranteeing nonsingularity), returning the
// matrix and its pattern as dense offsets.
func randomSystem(rng *rand.Rand, n int, density float64) (*la.Matrix, []int32) {
	a := la.NewMatrix(n, n)
	var pattern []int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < density {
				v := rng.NormFloat64()
				if i == j {
					v += float64(n) + 2 // diagonal dominance
				}
				a.Set(i, j, v)
				pattern = append(pattern, int32(i*n+j))
			}
		}
	}
	return a, pattern
}

// packedLayout is the value layout the tests compile against: a trash
// slot first, then the distinct pattern positions in their given
// order, so the slot numbering differs from both the row-major and
// the sorted order.
func packedLayout(pattern []int32) []int32 {
	layout := []int32{-1}
	seen := map[int32]bool{}
	for _, off := range pattern {
		if !seen[off] {
			seen[off] = true
			layout = append(layout, off)
		}
	}
	return layout
}

// compile compiles sym against packedLayout(pattern).
func compile(t testing.TB, sym *Symbolic, pattern []int32) (*Numeric, []int32) {
	t.Helper()
	layout := packedLayout(pattern)
	nu, err := sym.NewNumeric(layout)
	if err != nil {
		t.Fatalf("NewNumeric: %v", err)
	}
	return nu, layout
}

// pack gathers a's values into a fresh value array for nu under
// layout: the trash slot holds NaN, which would poison the solution if
// the kernel ever read it, and the fill slots hold zeros.
func pack(nu *Numeric, layout []int32, a *la.Matrix) []float64 {
	v := make([]float64, nu.Slots())
	for i, off := range layout {
		if off < 0 {
			v[i] = math.NaN()
		} else {
			v[i] = a.Data[off]
		}
	}
	return v
}

// solveDense is the reference: masked copy of a solved by the dense
// partial-pivot kernel.
func solveDense(t *testing.T, a *la.Matrix, b []float64) []float64 {
	t.Helper()
	var lu la.LU
	x := make([]float64, len(b))
	if err := lu.FactorSolveInPlace(a.Clone(), x, b); err != nil {
		t.Fatalf("dense reference solve failed: %v", err)
	}
	return x
}

func TestFactorSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		density := 0.15 + 0.5*rng.Float64()
		a, pattern := randomSystem(rng, n, density)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("trial %d (n=%d): Analyze: %v", trial, n, err)
		}
		want := solveDense(t, a, b)
		nu, layout := compile(t, sym, pattern)
		x := make([]float64, n)
		if err := nu.FactorSolve(pack(nu, layout, a), x, b); err != nil {
			t.Fatalf("trial %d (n=%d): FactorSolve: %v", trial, n, err)
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d (n=%d): x[%d] = %g, dense %g (diff %g)",
					trial, n, i, x[i], want[i], d)
			}
		}
	}
}

// TestRefactorNewValues exercises the core use case: one Analyze, many
// numeric refactors with different values on the same pattern.
func TestRefactorNewValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	a, pattern := randomSystem(rng, n, 0.4)
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	nu, layout := compile(t, sym, pattern)
	x := make([]float64, n)
	b := make([]float64, n)
	for round := 0; round < 50; round++ {
		// Perturb the values on the fixed pattern (keeping dominance).
		work := la.NewMatrix(n, n)
		for _, off := range pattern {
			i, j := int(off)/n, int(off)%n
			v := a.At(i, j) * (1 + 0.2*rng.NormFloat64())
			work.Set(i, j, v)
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := solveDense(t, work, b)
		if err := nu.FactorSolve(pack(nu, layout, work), x, b); err != nil {
			t.Fatalf("round %d: FactorSolve: %v", round, err)
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("round %d: x[%d] = %g, dense %g", round, i, x[i], want[i])
			}
		}
	}
}

func TestN1System(t *testing.T) {
	a := la.NewMatrix(1, 1)
	a.Set(0, 0, 5)
	sym, err := Analyze(a, []int32{0}, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if sym.N() != 1 || sym.Fill() != 0 || sym.NNZ() != 1 {
		t.Fatalf("n=1 symbolic: N=%d Fill=%d NNZ=%d", sym.N(), sym.Fill(), sym.NNZ())
	}
	x := make([]float64, 1)
	nu, layout := compile(t, sym, []int32{0})
	if err := nu.FactorSolve(pack(nu, layout, a), x, []float64{10}); err != nil {
		t.Fatalf("FactorSolve: %v", err)
	}
	if x[0] != 2 {
		t.Fatalf("x = %g, want 2", x[0])
	}
}

func TestSingularMatrix(t *testing.T) {
	// Numerically singular: rank-1 full 2x2.
	a := la.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	if _, err := Analyze(a, []int32{0, 1, 2, 3}, Options{}); !errors.Is(err, la.ErrSingular) {
		t.Fatalf("rank-1 Analyze error = %v, want ErrSingular", err)
	}
	// Structurally singular: an empty column.
	b := la.NewMatrix(2, 2)
	b.Set(0, 0, 1)
	b.Set(1, 0, 2)
	if _, err := Analyze(b, []int32{0, 2}, Options{}); !errors.Is(err, la.ErrSingular) {
		t.Fatalf("empty-column Analyze error = %v, want ErrSingular", err)
	}
}

// TestZeroDiagonalPivoting covers the MNA voltage-source shape: a
// branch row with a structurally zero diagonal, solvable only with
// off-diagonal pivoting.
func TestZeroDiagonalPivoting(t *testing.T) {
	a := la.NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	// (1,1) structurally absent.
	pattern := []int32{0, 1, 2}
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	b := []float64{5, 2}
	want := solveDense(t, a, b)
	x := make([]float64, 2)
	nu, layout := compile(t, sym, pattern)
	if err := nu.FactorSolve(pack(nu, layout, a), x, b); err != nil {
		t.Fatalf("FactorSolve: %v", err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, dense %v", x, want)
		}
	}
}

// TestStaticPivotFallback drives the numeric refactor into the
// small-pivot guard: the pivot chosen for the representative values
// collapses in a later refactor while the rest of its row stays large.
func TestStaticPivotFallback(t *testing.T) {
	a := la.NewMatrix(2, 2)
	a.Set(0, 0, 1e3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	pattern := []int32{0, 1, 2, 3}
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	nu, layout := compile(t, sym, pattern)
	x := make([]float64, 2)
	if err := nu.FactorSolve(pack(nu, layout, a), x, []float64{1, 1}); err != nil {
		t.Fatalf("representative FactorSolve: %v", err)
	}
	// Same pattern, degenerate values under the static order.
	bad := la.NewMatrix(2, 2)
	bad.Set(0, 0, 1e-12)
	bad.Set(0, 1, 1e3)
	bad.Set(1, 0, 1)
	bad.Set(1, 1, 1)
	err = nu.FactorSolve(pack(nu, layout, bad), x, []float64{1, 1})
	if !errors.Is(err, ErrPivot) {
		t.Fatalf("degenerate FactorSolve error = %v, want ErrPivot", err)
	}
	// The dense partial-pivot path (the caller's fallback) handles the
	// same values fine.
	bad2 := la.NewMatrix(2, 2)
	bad2.Set(0, 0, 1e-12)
	bad2.Set(0, 1, 1e3)
	bad2.Set(1, 0, 1)
	bad2.Set(1, 1, 1)
	var lu la.LU
	if err := lu.FactorSolveInPlace(bad2, x, []float64{1, 1}); err != nil {
		t.Fatalf("dense fallback: %v", err)
	}
}

// TestOffPatternGarbageIgnored verifies both contracts that let the
// solver keep stray values around: Analyze masks values off the
// pattern, and FactorSolve never reads or writes the trash slot or a
// slot whose position the analysis does not schedule.
func TestOffPatternGarbageIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 6
	a, pattern := randomSystem(rng, n, 0.3)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := solveDense(t, a, b)

	// Touched = pattern + fill; everything else may carry garbage.
	pre, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	dirty := a.Clone()
	onTouched := make([]bool, n*n)
	for _, off := range pre.touched {
		onTouched[off] = true
	}
	var unused []int32
	for off := range dirty.Data {
		if !onTouched[off] {
			dirty.Data[off] = rng.NormFloat64() * 1e6
			unused = append(unused, int32(off))
		}
	}
	if len(unused) == 0 {
		t.Fatal("no off-pattern positions to dirty")
	}
	sym, err := Analyze(dirty, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze on dirty matrix: %v", err)
	}
	// The layout interleaves the unused positions with the pattern,
	// behind a trash slot; their garbage and the trash slot's NaN must
	// not reach the solution, and must survive the refactor untouched.
	layout := []int32{-1}
	for i, off := range pattern {
		layout = append(layout, off)
		if i < len(unused) {
			layout = append(layout, unused[i])
		}
	}
	nu, err := sym.NewNumeric(layout)
	if err != nil {
		t.Fatalf("NewNumeric: %v", err)
	}
	v := pack(nu, layout, dirty)
	before := slices.Clone(v)
	x := make([]float64, n)
	if err := nu.FactorSolve(v, x, b); err != nil {
		t.Fatalf("FactorSolve with garbage slots: %v", err)
	}
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, dense %g", i, x[i], want[i])
		}
	}
	for i, off := range layout {
		if (off < 0 || !onTouched[off]) && math.Float64bits(v[i]) != math.Float64bits(before[i]) {
			t.Fatalf("slot %d (position %d) written by FactorSolve: %g -> %g", i, off, before[i], v[i])
		}
	}
}

// TestNewNumericRejectsBadLayout: a layout must give every pattern
// position exactly one slot inside the matrix.
func TestNewNumericRejectsBadLayout(t *testing.T) {
	a := la.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	sym, err := Analyze(a, []int32{0, 3}, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, layout := range [][]int32{{0}, {0, 3, 3}, {0, 3, 4}} {
		if _, err := sym.NewNumeric(layout); err == nil {
			t.Errorf("layout %v accepted", layout)
		}
	}
	nu, err := sym.NewNumeric([]int32{3, -1, 1, 0})
	if err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	if nu.Slots() != 4 {
		t.Fatalf("Slots = %d, want 4", nu.Slots())
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, pattern := randomSystem(rng, 9, 0.35)
	s1, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	s2, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for k := 0; k < s1.n; k++ {
		if s1.rowOf[k] != s2.rowOf[k] || s1.colOf[k] != s2.colOf[k] {
			t.Fatalf("pivot order differs at step %d: (%d,%d) vs (%d,%d)",
				k, s1.rowOf[k], s1.colOf[k], s2.rowOf[k], s2.colOf[k])
		}
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	if _, err := Analyze(&la.Matrix{Rows: 2, Cols: 3, Data: make([]float64, 6)}, nil, Options{}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	a := la.NewMatrix(2, 2)
	if _, err := Analyze(a, []int32{7}, Options{}); err == nil {
		t.Fatal("out-of-range pattern offset accepted")
	}
}

func TestFactorSolveRejectsSizeMismatch(t *testing.T) {
	a := la.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	sym, err := Analyze(a, []int32{0, 3}, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	nu, layout := compile(t, sym, []int32{0, 3})
	if err := nu.FactorSolve(make([]float64, 1), make([]float64, 2), make([]float64, 2)); err == nil {
		t.Fatal("short value array accepted")
	}
	if err := nu.FactorSolve(pack(nu, layout, a), make([]float64, 1), make([]float64, 2)); err == nil {
		t.Fatal("short solution slice accepted")
	}
}

// TestFactorSolveNoAllocs is the contract behind the CI gate: the
// numeric refactor must not allocate.
func TestFactorSolveNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10
	a, pattern := randomSystem(rng, n, 0.3)
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	nu, layout := compile(t, sym, pattern)
	base := pack(nu, layout, a)
	work := slices.Clone(base)
	x := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		copy(work, base)
		if err := nu.FactorSolve(work, x, b); err != nil {
			t.Fatalf("FactorSolve: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FactorSolve allocates: %g allocs/run", allocs)
	}
}
