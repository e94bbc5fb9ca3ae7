package hybriddelay

// Interleaved dense-vs-sparse solver comparison on the cold golden
// workloads: the gate-level Fig. 7 pipeline, the flattened c17
// composed golden, and the 4-bit ripple-carry adder. Each iteration
// times one dense pass and one sparse pass back to back on the same
// machine, so the reported speedup_x (dense seconds / sparse seconds)
// is immune to machine drift between separate benchmark invocations.
// These rows feed the CI bench-smoke job's BENCH_sparse.json artifact.

import (
	"context"
	"testing"
	"time"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
)

// BenchmarkSparseSpeedupGate interleaves the cold gate-level pipeline
// (every golden transient re-simulated) under both solver modes. The
// gate bench's MNA system is small (n = 8), where the sparse kernel's
// skip-list replay has little structure to exploit; the win here comes
// mostly from the frozen linear stamps.
func BenchmarkSparseSpeedupGate(b *testing.B) {
	pd := nor.DefaultParams()
	pd.MaxStep = 8e-12
	ps := pd
	ps.Solver = spice.SparseFast

	// One session per mode with its operating point prepared up front,
	// so the loop times evaluation only.
	mkSession := func(p nor.Params) *Session {
		s := NewSession(SessionOptions{Workers: parallelBenchWorkers})
		if _, err := s.ParamCache().OperatingPoint(context.Background(), gate.NOR2, p, DefaultSessionExpDMin); err != nil {
			b.Fatal(err)
		}
		return s
	}
	dense, sparse := mkSession(pd), mkSession(ps)
	configs, _ := fig7ParallelConfigs(2)
	seeds := []int64{1, 2}
	run := func(s *Session, p nor.Params) float64 {
		start := time.Now()
		if _, err := s.Evaluate(context.Background(), GateJob{Params: &p, Configs: configs, Seeds: seeds, NoCache: true}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}

	var dSecs, sSecs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dSecs += run(dense, pd)
		sSecs += run(sparse, ps)
	}
	b.StopTimer()
	b.ReportMetric(dSecs/sSecs, "speedup_x")
}

// BenchmarkSparseSpeedupCircuit interleaves one cold composed golden
// transient of the flattened c17 bench under both solver modes — the
// circuit-level system is large enough (tens of unknowns) that the
// O(n³) dense elimination dominates and the structural kernel pays off.
func BenchmarkSparseSpeedupCircuit(b *testing.B) {
	pd := nor.DefaultParams()
	pd.MaxStep = 8e-12
	ps := pd
	ps.Solver = spice.SparseFast

	nl := netlist.C17("c17")
	mkBench := func(p nor.Params) *netlist.Bench {
		bench, err := netlist.NewBench(nl, p)
		if err != nil {
			b.Fatal(err)
		}
		return bench
	}
	dense, sparse := mkBench(pd), mkBench(ps)
	cfg := circuitBenchConfig()
	cfg.Inputs = len(nl.Inputs)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	until := gen.Horizon(inputs, 600e-12)

	var dSecs, sSecs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := dense.Golden(inputs, until); err != nil {
			b.Fatal(err)
		}
		dSecs += time.Since(start).Seconds()
		start = time.Now()
		if _, err := sparse.Golden(inputs, until); err != nil {
			b.Fatal(err)
		}
		sSecs += time.Since(start).Seconds()
	}
	b.StopTimer()
	b.ReportMetric(dSecs/sSecs, "speedup_x")
	st := sparse.SolverStats()
	b.ReportMetric(float64(st.SparseFallbacks), "sparse_fallbacks")
}

// BenchmarkSparseSpeedupAdder interleaves one cold composed golden of
// the 4-bit NAND-only ripple-carry adder (36 gates, the largest
// shipped netlist class below rca16) under both solver modes. The
// flattened MNA system is wide enough for the supernodal blocked
// kernel to matter, and the deep carry chain keeps every stage
// electrically active across the transient.
func BenchmarkSparseSpeedupAdder(b *testing.B) {
	pd := nor.DefaultParams()
	pd.MaxStep = 8e-12
	ps := pd
	ps.Solver = spice.SparseFast

	nl, err := netlist.RippleCarryAdder("rca4", 4)
	if err != nil {
		b.Fatal(err)
	}
	mkBench := func(p nor.Params) *netlist.Bench {
		bench, err := netlist.NewBench(nl, p)
		if err != nil {
			b.Fatal(err)
		}
		return bench
	}
	dense, sparse := mkBench(pd), mkBench(ps)
	cfg := circuitBenchConfig()
	cfg.Inputs = len(nl.Inputs)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	until := gen.Horizon(inputs, 600e-12)

	var dSecs, sSecs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := dense.Golden(inputs, until); err != nil {
			b.Fatal(err)
		}
		dSecs += time.Since(start).Seconds()
		start = time.Now()
		if _, err := sparse.Golden(inputs, until); err != nil {
			b.Fatal(err)
		}
		sSecs += time.Since(start).Seconds()
	}
	b.StopTimer()
	b.ReportMetric(dSecs/sSecs, "speedup_x")
	st := sparse.SolverStats()
	b.ReportMetric(float64(st.SparseFallbacks), "sparse_fallbacks")
	b.ReportMetric(float64(st.Supernodes), "supernodes")
}
