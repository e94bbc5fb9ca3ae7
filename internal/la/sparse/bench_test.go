package sparse

import (
	"math/rand"
	"testing"

	"hybriddelay/internal/la"
)

// mnaLike builds a banded-plus-sources pattern resembling a flattened
// gate chain's MNA Jacobian: node rows coupled to a few neighbours,
// plus voltage-source branch rows with zero diagonals.
func mnaLike(n int) (*la.Matrix, []int32) {
	rng := rand.New(rand.NewSource(int64(n)))
	a := la.NewMatrix(n, n)
	var pattern []int32
	set := func(i, j int, v float64) {
		if a.At(i, j) == 0 {
			pattern = append(pattern, int32(i*n+j))
		}
		a.Add(i, j, v)
	}
	nv := n - n/8 // last n/8 unknowns act as branch currents
	for i := 0; i < nv; i++ {
		set(i, i, 2+rng.Float64())
		for _, d := range []int{1, 3} {
			if j := i + d; j < nv {
				g := 0.3 + rng.Float64()
				set(i, j, -g)
				set(j, i, -g)
				set(i, i, g)
				set(j, j, g)
			}
		}
	}
	for bi := nv; bi < n; bi++ {
		p := (bi - nv) * 2 % nv
		set(p, bi, 1)
		set(bi, p, 1)
	}
	return a, pattern
}

func benchSizes(b *testing.B, run func(b *testing.B, n int)) {
	for _, n := range []int{8, 32, 96} {
		b.Run(map[int]string{8: "n8", 32: "n32", 96: "n96"}[n], func(b *testing.B) {
			run(b, n)
		})
	}
}

// BenchmarkSparseFactorSolve measures the numeric refactor + solve on
// a fixed analyzed pattern; its allocs/op is a hard CI gate (must be
// zero), as the refactor runs on every Newton iteration of every step.
func BenchmarkSparseFactorSolve(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		a, pattern := mnaLike(n)
		sym, err := Analyze(a, pattern, Options{})
		if err != nil {
			b.Fatalf("Analyze: %v", err)
		}
		nu, layout := compile(b, sym, pattern)
		base := pack(nu, layout, a)
		work := make([]float64, len(base))
		x := make([]float64, n)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%7) - 3
		}
		b.ReportMetric(float64(sym.NNZ()), "nnz")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, base)
			if err := nu.FactorSolve(work, x, rhs); err != nil {
				b.Fatalf("FactorSolve: %v", err)
			}
		}
	})
}

// BenchmarkDenseFactorSolve is the dense baseline on the same systems,
// including the full-matrix rebuild a dense refactor implies.
func BenchmarkDenseFactorSolve(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		a, _ := mnaLike(n)
		var lu la.LU
		work := a.Clone()
		x := make([]float64, n)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%7) - 3
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work.Data, a.Data)
			if err := lu.FactorSolveInPlace(work, x, rhs); err != nil {
				b.Fatalf("FactorSolveInPlace: %v", err)
			}
		}
	})
}
