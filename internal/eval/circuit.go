package eval

import (
	"context"
	"fmt"
	"math"
	"sync"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// This file lifts the Fig. 7 accuracy pipeline from one gate to whole
// circuits: a netlist's composed analog bench produces a golden trace
// per recorded net, every delay model is elaborated over the same
// netlist as a topological dataflow of its offline per-gate appliers,
// and each recorded net is scored by deviation area — the single-gate
// pipeline is the exact one-instance special case (bit-identical, see
// the property test).

// CircuitGoldenSource produces the digitized composed golden traces of
// a netlist run, one per recorded net. Implementations must be safe for
// concurrent use.
type CircuitGoldenSource interface {
	GoldenNets(req GoldenRequest) (map[string]trace.Trace, error)
}

// CircuitBenchSource is a CircuitGoldenSource backed by a pool of
// composed transistor-level benches, one handed to each concurrent
// request (cf. BenchSource for single gates).
type CircuitBenchSource struct {
	nl *netlist.Netlist
	p  nor.Params

	mu   sync.Mutex
	free []*netlist.Bench
}

// NewCircuitBenchSource wraps a composed bench as a concurrency-safe
// golden source; extra instances are cloned on demand.
func NewCircuitBenchSource(b *netlist.Bench) *CircuitBenchSource {
	return &CircuitBenchSource{nl: b.Netlist(), p: b.Params(), free: []*netlist.Bench{b}}
}

func (s *CircuitBenchSource) acquire() (*netlist.Bench, error) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()
	return netlist.NewBench(s.nl, s.p)
}

func (s *CircuitBenchSource) release(b *netlist.Bench) {
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

// SolverStats aggregates the solver counters of the pooled composed
// benches; only idle (released) instances are counted, so take the
// snapshot between jobs (cf. BenchSource.SolverStats).
func (s *CircuitBenchSource) SolverStats() spice.SolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st spice.SolverStats
	for _, b := range s.free {
		st.Add(b.SolverStats())
	}
	return st
}

// GoldenNets implements CircuitGoldenSource on a private bench.
func (s *CircuitBenchSource) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	b, err := s.acquire()
	if err != nil {
		return nil, err
	}
	out, err := b.Golden(req.Inputs, req.Until)
	s.release(b)
	return out, err
}

// CircuitLeaser is the circuit counterpart of Leaser: sources that can
// pin one composed bench to a single goroutine for a batch of
// consecutive units.
type CircuitLeaser interface {
	LeaseCircuit() (CircuitGoldenSource, func(), error)
}

// leasedCircuitBench is a CircuitBenchSource lease: one pinned bench.
type leasedCircuitBench struct {
	b *netlist.Bench
}

// GoldenNets implements CircuitGoldenSource on the pinned bench.
func (l leasedCircuitBench) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	return l.b.Golden(req.Inputs, req.Until)
}

// LeaseCircuit implements CircuitLeaser by pinning one pooled bench.
func (s *CircuitBenchSource) LeaseCircuit() (CircuitGoldenSource, func(), error) {
	b, err := s.acquire()
	if err != nil {
		return nil, nil, err
	}
	return leasedCircuitBench{b: b}, func() { s.release(b) }, nil
}

// CachedCircuitSource composes a GoldenCache over an inner circuit
// source, keyed by the netlist content key (Gate field carries
// "circuit:" + Netlist.ContentKey()) and the bench parameters — the
// circuit-level counterpart of CachedSource.
type CachedCircuitSource struct {
	Key   string // netlist content key
	Bench nor.Params
	Cache *GoldenCache
	Src   CircuitGoldenSource
	Tally *Tally // when non-nil, counts this source's hits and misses
}

// CircuitKey builds the cache key of one composed golden run.
func CircuitKey(contentKey string, bench nor.Params, cfg gen.Config, seed int64) GoldenKey {
	return GoldenKey{Gate: "circuit:" + contentKey, Bench: bench, Config: cfg, Seed: seed}
}

// GoldenNets implements CircuitGoldenSource with memoization.
func (s CachedCircuitSource) GoldenNets(req GoldenRequest) (map[string]trace.Trace, error) {
	out, hit, err := s.Cache.GetOrComputeSet(CircuitKey(s.Key, s.Bench, req.Config, req.Seed),
		func() (map[string]trace.Trace, error) { return s.Src.GoldenNets(req) })
	s.Tally.count(hit, err)
	return out, err
}

// LeaseCircuit implements CircuitLeaser by leasing the inner source
// when it supports leasing; the cache stays in front.
func (s CachedCircuitSource) LeaseCircuit() (CircuitGoldenSource, func(), error) {
	l, ok := s.Src.(CircuitLeaser)
	if !ok {
		return s, func() {}, nil
	}
	inner, release, err := l.LeaseCircuit()
	if err != nil {
		return nil, nil, err
	}
	leased := s
	leased.Src = inner
	return leased, release, nil
}

// applyInstanceModel runs one instance's inputs through the named delay
// model of its gate's model set — the per-instance unit of the circuit
// dataflow, matching RunModels' per-gate semantics exactly.
func applyInstanceModel(m Models, model string, in []trace.Trace, until float64) (trace.Trace, error) {
	switch model {
	case ModelInertial:
		return m.Inertial.Apply(m.Gate.Logic, in...), nil
	case ModelExp:
		return dtsim.ApplyDelay(trace.Combine(m.Gate.Logic, in...), m.Exp), nil
	case ModelHM:
		return m.HM.Apply(in, until)
	case ModelHMNoDMin:
		return m.HMNoDMin.Apply(in, until)
	}
	return trace.Trace{}, fmt.Errorf("eval: unknown model %q", model)
}

// CircuitSeedResult is the outcome of one circuit evaluation unit: one
// configuration run once with one seed, scored per recorded net.
type CircuitSeedResult struct {
	Config gen.Config
	Seed   int64
	// Nets lists the recorded nets in report order; the maps below are
	// keyed by these names. Iterate Nets (not the maps) wherever
	// floating-point sums must stay deterministic.
	Nets []string
	// Area maps net -> model -> absolute deviation area [s].
	Area map[string]map[string]float64
	// GoldenEv maps net -> golden output transitions observed.
	GoldenEv map[string]int
}

// EvaluateCircuitSeedContext runs the circuit pipeline for a single
// (config, seed) unit: generate the primary input traces, obtain the
// composed golden traces, elaborate every delay model over the netlist
// in topological order and measure each recorded net's deviation area.
// ctx is checked between the unit's stages (trace generation, the
// composed golden run, each model's dataflow walk). The configuration's
// input count must match the netlist's primary input count.
func EvaluateCircuitSeedContext(ctx context.Context, golden CircuitGoldenSource, nl *netlist.Netlist,
	ms netlist.ModelSet, cfg gen.Config, seed int64) (CircuitSeedResult, error) {
	res := CircuitSeedResult{Config: cfg, Seed: seed, Nets: nl.Recorded(),
		Area: map[string]map[string]float64{}, GoldenEv: map[string]int{}}
	if len(nl.Inputs) != cfg.Inputs {
		return res, fmt.Errorf("eval: netlist has %d primary inputs, config has %d", len(nl.Inputs), cfg.Inputs)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	inputs, err := gen.Traces(cfg, seed)
	if err != nil {
		return res, err
	}
	until := gen.Horizon(inputs, 600*waveform.Pico)
	g, err := golden.GoldenNets(GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	if err != nil {
		return res, fmt.Errorf("eval: circuit seed %d: %w", seed, err)
	}
	for _, net := range res.Nets {
		if _, ok := g[net]; !ok {
			return res, fmt.Errorf("eval: circuit seed %d: golden source returned no trace for net %q", seed, net)
		}
		res.Area[net] = map[string]float64{}
		res.GoldenEv[net] = g[net].NumEvents()
	}
	for _, model := range ModelNames {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		nets, err := nl.Walk(inputs, func(inst netlist.Instance, gg gate.Gate, in []trace.Trace) (trace.Trace, error) {
			m, err := ms.For(inst)
			if err != nil {
				return trace.Trace{}, err
			}
			return applyInstanceModel(m, model, in, until)
		})
		if err != nil {
			return res, fmt.Errorf("eval: circuit seed %d: model %s: %w", seed, model, err)
		}
		for _, net := range res.Nets {
			res.Area[net][model] = trace.DeviationArea(g[net], nets[net], 0, until)
		}
	}
	return res, nil
}

// CircuitResult aggregates circuit deviation areas over the repetitions
// of one waveform configuration: per-net and circuit-total areas and
// their inertial-normalized ratios (the Fig. 7 bars per net). As in
// RunResult, a normalized entry is NaN when its inertial baseline
// accumulated zero area.
type CircuitResult struct {
	Netlist string
	Config  gen.Config
	Seeds   []int64
	// Nets lists the recorded nets in report order.
	Nets []string
	// Area and Normalized map net -> model.
	Area       map[string]map[string]float64
	Normalized map[string]map[string]float64
	// TotalArea and TotalNormalized sum over the recorded nets.
	TotalArea       map[string]float64
	TotalNormalized map[string]float64
	// GoldenEv maps net -> golden transitions over all seeds.
	GoldenEv map[string]int
	// Solver aggregates the MNA solver counters of the run's composed
	// bench pool (filled by the session's circuit job; zero when the
	// merge was assembled from parts directly).
	Solver spice.SolverStats
}

// normalizeBy divides per-model areas by the inertial baseline, NaN
// when the baseline is not positive.
func normalizeBy(area map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(area))
	base := area[ModelInertial]
	//hybrid:nondet-ok each model writes its own out[name] from a base read before the loop; distinct keys
	for name, a := range area {
		if base <= 0 {
			out[name] = math.NaN()
		} else {
			out[name] = a / base
		}
	}
	return out
}

// MergeCircuitSeedResults folds per-seed circuit results into a
// CircuitResult. Sums run in the given part order and in recorded-net
// order, so for a fixed seed order the merged floating-point sums are
// identical no matter how many workers produced the parts.
func MergeCircuitSeedResults(nl *netlist.Netlist, cfg gen.Config, parts []CircuitSeedResult) CircuitResult {
	res := CircuitResult{
		Netlist:         nl.Name,
		Config:          cfg,
		Seeds:           make([]int64, 0, len(parts)),
		Nets:            nl.Recorded(),
		Area:            map[string]map[string]float64{},
		Normalized:      map[string]map[string]float64{},
		TotalArea:       map[string]float64{},
		TotalNormalized: map[string]float64{},
		GoldenEv:        map[string]int{},
	}
	for _, net := range res.Nets {
		res.Area[net] = map[string]float64{}
	}
	for _, p := range parts {
		res.Seeds = append(res.Seeds, p.Seed)
		for _, net := range res.Nets {
			res.GoldenEv[net] += p.GoldenEv[net]
			//hybrid:nondet-ok one visit per distinct model key per part; parts and nets fold in fixed slice order, so the float sums are reproducible
			for model, a := range p.Area[net] {
				res.Area[net][model] += a
			}
		}
	}
	for _, net := range res.Nets {
		res.Normalized[net] = normalizeBy(res.Area[net])
		for _, model := range ModelNames {
			res.TotalArea[model] += res.Area[net][model]
		}
	}
	res.TotalNormalized = normalizeBy(res.TotalArea)
	return res
}
