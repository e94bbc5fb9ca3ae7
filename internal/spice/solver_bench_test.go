package spice

import "testing"

// BenchmarkSolverNewton measures one Newton solve in a warm workspace —
// the transient inner loop. The allocation count here is guarded by CI:
// the whole point of the Solver is that this path does not allocate.
func BenchmarkSolverNewton(b *testing.B) {
	c, _ := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		b.Fatal(err)
	}
	op, err := s.OperatingPoint(0, NewtonOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s.ctx.Time, s.ctx.Dt, s.ctx.Method, s.ctx.DC = 10e-12, 10e-12, Trapezoidal, false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.ctx.V, op)
		if err := s.newton(NewtonOptions{}, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverTransient runs the inverter edge in one persistent
// solver — the per-unit cost a warm bench pays.
func BenchmarkSolverTransient(b *testing.B) {
	c, _ := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		b.Fatal(err)
	}
	opt := inverterOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Transient(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverTransientFresh is the pre-Solver reference: a fresh
// workspace per transient, for the cold/warm comparison in CI's
// BENCH_solver.json.
func BenchmarkSolverTransientFresh(b *testing.B) {
	c, _ := inverterCircuit()
	opt := inverterOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transient(c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverNewtonSparse is the SparseFast counterpart of
// BenchmarkSolverNewton: one Newton solve in a warm workspace with the
// frozen linear base and the static-pivot sparse refactor. Its
// allocs/op is guarded by CI alongside the dense gate — the sparse
// inner loop must not allocate either (the one-time symbolic analysis
// happens before the timer starts).
func BenchmarkSolverNewtonSparse(b *testing.B) { benchNewtonSparse(b, 1) }

// BenchmarkSolverNewtonSparseChain is BenchmarkSolverNewtonSparse on a
// chain of 64 inverters (128 MOSFETs, 68 unknowns), where the per-solve
// RHS re-stamp and the per-iteration channel stamps outweigh the
// factorization. CI gates its allocs/op at 0 too.
func BenchmarkSolverNewtonSparseChain(b *testing.B) { benchNewtonSparse(b, 64) }

func benchNewtonSparse(b *testing.B, stages int) {
	c, _ := inverterChain(stages)
	s, err := NewSolver(c)
	if err != nil {
		b.Fatal(err)
	}
	s.mode = SparseFast
	op, err := s.OperatingPoint(0, NewtonOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s.ctx.Time, s.ctx.Dt, s.ctx.Method, s.ctx.DC = 10e-12, 10e-12, Trapezoidal, false
	// Warm-up solve performs the symbolic analysis.
	copy(s.ctx.V, op)
	if err := s.newton(NewtonOptions{}, 0, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.ctx.V, op)
		if err := s.newton(NewtonOptions{}, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverTransientSparse runs the inverter edge in SparseFast
// mode in one persistent solver, for the dense-vs-sparse per-unit
// comparison in BENCH_solver.json.
func BenchmarkSolverTransientSparse(b *testing.B) {
	c, _ := inverterCircuit()
	s, err := NewSolver(c)
	if err != nil {
		b.Fatal(err)
	}
	opt := inverterOptions()
	opt.Solver = SparseFast
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Transient(opt); err != nil {
			b.Fatal(err)
		}
	}
}
