package hybriddelay

// Circuit-level evaluation benchmarks: the composed-golden pipeline
// over the NOR + inverter-chain netlist, cold (every golden transient
// simulated) and warm (golden trace sets served from the shared
// cache), both through Session circuit jobs.

import (
	"context"
	"sync"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
)

// circuitBenchState builds the shared chain netlist once per process.
var circuitBenchState struct {
	once sync.Once
	nl   *netlist.Netlist
	p    nor.Params
	err  error
}

func circuitBenchSetup(b *testing.B) (*netlist.Netlist, nor.Params) {
	s := &circuitBenchState
	s.once.Do(func() {
		s.nl, s.err = netlist.InverterChain("bench-chain", 3)
		s.p = nor.DefaultParams()
		s.p.MaxStep = 8e-12
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nl, s.p
}

// circuitSession returns a 4-worker session that already holds the
// operating point of the chain's member gate, so the benchmarks track
// evaluation cost, not parametrization cost.
func circuitSession(b *testing.B, p nor.Params) *Session {
	s := NewSession(SessionOptions{Workers: 4})
	if _, err := s.ParamCache().OperatingPoint(context.Background(), gate.NOR2, p, DefaultSessionExpDMin); err != nil {
		b.Fatal(err)
	}
	return s
}

func circuitBenchConfig() gen.Config {
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = 30
	return cfg
}

// circuitBenchJob is the chain circuit over two seeds.
func circuitBenchJob(nl *netlist.Netlist, p *nor.Params) CircuitJob {
	return CircuitJob{Netlist: nl, Params: p, Config: circuitBenchConfig(), Seeds: []int64{1, 2}}
}

// BenchmarkEvaluateCircuitChain measures the cold circuit pipeline:
// every iteration runs on a fresh session (its operating point prepared
// off the clock), so it simulates the composed golden transients.
func BenchmarkEvaluateCircuitChain(b *testing.B) {
	nl, p := circuitBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := circuitSession(b, p)
		b.StartTimer()
		res, err := s.Evaluate(context.Background(), circuitBenchJob(nl, &p))
		if err != nil {
			b.Fatal(err)
		}
		ev := 0
		for _, net := range res.Circuit.Nets {
			ev += res.Circuit.GoldenEv[net]
		}
		b.ReportMetric(float64(ev), "golden_ev")
	}
}

// BenchmarkEvaluateCircuitCached measures the warm steady state: the
// golden trace sets come from the session's cache, so the iteration
// cost is the model side of the circuit pipeline.
func BenchmarkEvaluateCircuitCached(b *testing.B) {
	nl, p := circuitBenchSetup(b)
	s := circuitSession(b, p)
	if _, err := s.Evaluate(context.Background(), circuitBenchJob(nl, &p)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(context.Background(), circuitBenchJob(nl, &p)); err != nil {
			b.Fatal(err)
		}
	}
	st := s.GoldenCache().Stats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_rate")
}

// BenchmarkComposedGoldenC17 measures one composed transient of the
// reconvergent c17 circuit — the raw analog cost of circuit-level
// golden generation.
func BenchmarkComposedGoldenC17(b *testing.B) {
	_, p := circuitBenchSetup(b)
	nl := netlist.C17("c17")
	bench, err := netlist.NewBench(nl, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := circuitBenchConfig()
	cfg.Inputs = len(nl.Inputs)
	inputs, err := gen.Traces(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	until := gen.Horizon(inputs, 600e-12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Golden(inputs, until); err != nil {
			b.Fatal(err)
		}
	}
}
