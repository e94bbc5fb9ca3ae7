package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
)

// checkBitIdentical runs the blocked FactorSolve and the scalar
// reference on separate packed copies of a and asserts the contract:
// the same error (if any), and on success bit-identical solutions, LU
// values in every slot and hoisted reciprocals.
func checkBitIdentical(t *testing.T, sym *Symbolic, a *la.Matrix, pattern []int32, b []float64) {
	t.Helper()
	n := a.Rows
	nb, layout := compile(t, sym, pattern)
	ns, _ := compile(t, sym, pattern)
	vb, vs := pack(nb, layout, a), pack(ns, layout, a)
	xb := make([]float64, n)
	xs := make([]float64, n)
	errB := nb.FactorSolve(vb, xb, b)
	errS := ns.factorSolveScalar(vs, xs, b)
	if !errors.Is(errB, errS) && !errors.Is(errS, errB) {
		t.Fatalf("error mismatch: blocked %v, scalar %v", errB, errS)
	}
	if errB != nil {
		return // partial clobber on failure is allowed to differ
	}
	for i := range xb {
		if math.Float64bits(xb[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("x[%d]: blocked %x (%g), scalar %x (%g)",
				i, math.Float64bits(xb[i]), xb[i], math.Float64bits(xs[i]), xs[i])
		}
	}
	for i := range vb {
		if math.Float64bits(vb[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("LU slot %d: blocked %g, scalar %g", i, vb[i], vs[i])
		}
	}
	for k := 0; k < n; k++ {
		if math.Float64bits(nb.recip[k]) != math.Float64bits(ns.recip[k]) {
			t.Fatalf("recip[%d]: blocked %g, scalar %g", k, nb.recip[k], ns.recip[k])
		}
	}
}

// TestBlockedMatchesScalarMNA: the blocked kernel is bit-identical to
// the scalar schedule on MNA-shaped systems (banded node blocks plus
// zero-diagonal source branch rows), across repeated refactors with
// drifting values — the exact workload of the Newton inner loop.
func TestBlockedMatchesScalarMNA(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32, 96} {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("n=%d: Analyze: %v", n, err)
		}
		rng := rand.New(rand.NewSource(int64(n) * 7))
		b := make([]float64, n)
		for rep := 0; rep < 8; rep++ {
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			checkBitIdentical(t, sym, a, pattern, b)
			// Drift the values (pattern fixed) as Newton iterations do.
			for _, off := range pattern {
				a.Data[off] *= 1 + 0.2*rng.Float64()
			}
		}
	}
}

// TestBlockedMatchesDense cross-checks the blocked kernel against the
// dense partial-pivot reference within tolerance (the blocked-vs-scalar
// tests pin exact bits; this pins overall correctness).
func TestBlockedMatchesDense(t *testing.T) {
	for _, n := range []int{8, 32, 96} {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("n=%d: Analyze: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 2
		}
		var lu la.LU
		want := make([]float64, n)
		if err := lu.FactorSolveInPlace(a.Clone(), want, b); err != nil {
			t.Fatalf("dense reference: %v", err)
		}
		x := make([]float64, n)
		nu, layout := compile(t, sym, pattern)
		if err := nu.FactorSolve(pack(nu, layout, a), x, b); err != nil {
			t.Fatalf("FactorSolve: %v", err)
		}
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d] = %g, dense %g", n, i, x[i], want[i])
			}
		}
	}
}

// TestSupernodesDetectedDense: a fully dense matrix has identical
// sub-patterns everywhere, so the whole elimination collapses into
// width-capped supernodes.
func TestSupernodesDetectedDense(t *testing.T) {
	n := 40
	a := la.NewMatrix(n, n)
	pattern := make([]int32, 0, n*n)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v = float64(n) + rng.Float64() // dominant diagonal
			}
			a.Set(i, j, v)
			pattern = append(pattern, int32(i*n+j))
		}
	}
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if sym.MaxSupernodeWidth() != maxSupernodeWidth {
		t.Fatalf("MaxSupernodeWidth = %d, want the cap %d", sym.MaxSupernodeWidth(), maxSupernodeWidth)
	}
	if sym.Supernodes() != 2 { // 40 steps split as 32 + 8
		t.Fatalf("Supernodes = %d, want 2", sym.Supernodes())
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	checkBitIdentical(t, sym, a, pattern, b)
}

// TestSupernodesOnGateChain: the MNA-shaped generator must yield at
// least some merged columns — the structural motivation for the
// blocked kernel — and the partition must tile the step range exactly.
func TestSupernodesOnGateChain(t *testing.T) {
	a, pattern := mnaLike(96)
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if sym.Supernodes() == 0 {
		t.Fatalf("no supernodes detected on the gate-chain pattern (fill=%d nnz=%d)", sym.Fill(), sym.NNZ())
	}
	// Partition sanity: contiguous, complete, within the width cap.
	if got := sym.snodePtr[0]; got != 0 {
		t.Fatalf("snodePtr[0] = %d", got)
	}
	if got := int(sym.snodePtr[len(sym.snodePtr)-1]); got != sym.N() {
		t.Fatalf("snodePtr end = %d, want %d", got, sym.N())
	}
	for i := 0; i+1 < len(sym.snodePtr); i++ {
		w := int(sym.snodePtr[i+1] - sym.snodePtr[i])
		if w < 1 || w > maxSupernodeWidth {
			t.Fatalf("supernode %d has width %d", i, w)
		}
	}
}

// TestBlockedErrPivotMatchesScalar: when refactor values drift so far
// that a scheduled pivot degrades, the blocked kernel must fail with
// ErrPivot exactly when the scalar schedule does.
func TestBlockedErrPivotMatchesScalar(t *testing.T) {
	n := 16
	a, pattern := mnaLike(n)
	sym, err := Analyze(a, pattern, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Zero a diagonal entry the static order pivots on early: the
	// refactor hits a zero pivot and must guard, on both paths.
	drift := a.Clone()
	drift.Set(int(sym.rowOf[0]), int(sym.colOf[0]), 0)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	nu, layout := compile(t, sym, pattern)
	if err := nu.FactorSolve(pack(nu, layout, drift), make([]float64, n), b); !errors.Is(err, ErrPivot) {
		t.Fatalf("blocked: got %v, want ErrPivot", err)
	}
	if err := nu.factorSolveScalar(pack(nu, layout, drift), make([]float64, n), b); !errors.Is(err, ErrPivot) {
		t.Fatalf("scalar: got %v, want ErrPivot", err)
	}
	checkBitIdentical(t, sym, drift, pattern, b)
}

// TestBlockedSignedZeroMultipliers: zero multipliers must be skipped,
// not applied — a -0.0 entry combined with a zero multiplier flips
// sign under `x - (-0)`; this pins the `l != 0` guard in phase B.
func TestBlockedSignedZeroMultipliers(t *testing.T) {
	for _, n := range []int{8, 24} {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		// Zero out scattered sub-pivot entries so phase B sees l == 0,
		// and plant negative zeros in trailing positions.
		rng := rand.New(rand.NewSource(3))
		drift := a.Clone()
		for _, off := range pattern {
			switch rng.Intn(4) {
			case 0:
				drift.Data[off] = 0
			case 1:
				drift.Data[off] = math.Copysign(0, -1)
			}
		}
		// Keep the pivots themselves alive.
		for k := 0; k < n; k++ {
			off := int(sym.rowOf[k])*n + int(sym.colOf[k])
			if drift.Data[off] == 0 {
				drift.Data[off] = a.Data[off]
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		checkBitIdentical(t, sym, drift, pattern, b)
	}
}

// TestBlockedRandomPatterns: randomized structures through the fuzz
// generator, as a deterministic complement to FuzzSupernodeBlocked.
func TestBlockedRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		raw := make([]byte, 2+16*16+16)
		rng.Read(raw)
		a, pattern, b, ok := decodeSystem(raw)
		if !ok {
			continue
		}
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("trial %d: Analyze: %v", trial, err)
		}
		checkBitIdentical(t, sym, a, pattern, b)
	}
}

// FuzzSupernodeBlocked fuzzes the supernode detection and blocked
// kernel: for every generated structure the blocked refactor must be
// bit-for-bit identical to the scalar schedule, both on the pilot
// values and on a deterministic value drift of the same pattern.
func FuzzSupernodeBlocked(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{5,
		255, 1, 1, 1, 1,
		1, 255, 1, 1, 1,
		1, 1, 255, 1, 1,
		1, 1, 1, 255, 1,
		1, 1, 1, 1, 255,
		1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, pattern, b, ok := decodeSystem(data)
		if !ok {
			return
		}
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			t.Fatalf("Analyze failed on dominant system: %v", err)
		}
		check := func(m *la.Matrix) {
			t.Helper()
			n := m.Rows
			nb, layout := compile(t, sym, pattern)
			ns, _ := compile(t, sym, pattern)
			wb, ws := pack(nb, layout, m), pack(ns, layout, m)
			xb, xs := make([]float64, n), make([]float64, n)
			errB := nb.FactorSolve(wb, xb, b)
			errS := ns.factorSolveScalar(ws, xs, b)
			if (errB == nil) != (errS == nil) {
				t.Fatalf("error mismatch: blocked %v, scalar %v", errB, errS)
			}
			if errB != nil {
				return
			}
			for i := range xb {
				if math.Float64bits(xb[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("x[%d]: blocked %g, scalar %g", i, xb[i], xs[i])
				}
			}
			for i := range wb {
				if math.Float64bits(wb[i]) != math.Float64bits(ws[i]) {
					t.Fatalf("LU slot %d: blocked %g, scalar %g", i, wb[i], ws[i])
				}
			}
		}
		check(a)
		// Drift the values off the pilot (possibly creating zero
		// multipliers and degraded pivots) and refactor again.
		drift := a.Clone()
		for i, off := range pattern {
			switch i % 5 {
			case 0:
				drift.Data[off] = 0
			case 1:
				drift.Data[off] *= -1.5
			case 2:
				drift.Data[off] *= 1e-6
			}
		}
		check(drift)
	})
}
