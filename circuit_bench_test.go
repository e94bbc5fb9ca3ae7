package hybriddelay

// Circuit-level evaluation benchmarks: the composed-golden pipeline
// over the NOR + inverter-chain netlist, cold (every golden transient
// simulated) and warm (golden trace sets served from the shared
// cache), both through Session circuit jobs.

import (
	"context"
	"sync"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
)

// circuitBenchState prepares the shared chain netlist and the
// parametrization of its member gate once per process: the benchmarks
// track evaluation cost, not parametrization cost.
var circuitBenchState struct {
	once   sync.Once
	nl     *netlist.Netlist
	p      nor.Params
	params *eval.ParamCache
	err    error
}

func circuitBenchSetup(b *testing.B) (*netlist.Netlist, nor.Params, *eval.ParamCache) {
	s := &circuitBenchState
	s.once.Do(func() {
		s.nl, s.err = netlist.InverterChain("bench-chain", 3)
		if s.err != nil {
			return
		}
		s.p = nor.DefaultParams()
		s.p.MaxStep = 8e-12
		s.params = eval.NewParamCache()
		_, s.err = s.params.OperatingPoint(context.Background(), gate.NOR2, s.p, DefaultSessionExpDMin)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nl, s.p, s.params
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
// every iteration runs on a fresh golden cache, so it simulates the
// composed golden transients.
func BenchmarkEvaluateCircuitChain(b *testing.B) {
	nl, p, params := circuitBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := NewSession(SessionOptions{Workers: 4, Params: params}).Evaluate(context.Background(), circuitBenchJob(nl, &p))
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
	nl, p, params := circuitBenchSetup(b)
	s := NewSession(SessionOptions{Workers: 4, Params: params})
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
	_, p, _ := circuitBenchSetup(b)
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
