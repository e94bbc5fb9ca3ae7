package main

// The traced run mirrors session.Session's gate and circuit paths
// (evaluateGate → eval.Runner, evaluateCircuit → EvaluateCircuitContext)
// call for call through the packages' public functions, with the same
// worker count and leased benches, and records a span around every
// call. Nothing inside the program is instrumented, so the spans show
// where time goes at the layer boundaries only; the results must come
// out byte-identical to the untraced Session run.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/pool"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// jobTrace is one traced job: its result, its spans and the per-layer
// metrics read at the layer boundaries.
type jobTrace struct {
	result *session.Result
	spans  []span
	layers map[string]float64
}

// probe counts calls at the layer boundaries of one traced job and maps
// each golden key to the worker lane looking it up, so store calls made
// from inside the shared golden cache nest under the right unit.
type probe struct {
	mu     sync.Mutex
	lanes  map[eval.GoldenKey]*lane
	solves int
	loads  int
	saves  int
}

func newProbe() *probe { return &probe{lanes: map[eval.GoldenKey]*lane{}} }

func (p *probe) bind(k eval.GoldenKey, l *lane) {
	p.mu.Lock()
	p.lanes[k] = l
	p.mu.Unlock()
}

// enter opens a span on the lane bound to k and counts the call.
func (p *probe) enter(k eval.GoldenKey, name string, n *int) func() {
	p.mu.Lock()
	l := p.lanes[k]
	*n++
	p.mu.Unlock()
	if l == nil {
		return func() {}
	}
	return l.begin(name)
}

// timedGolden times the transient solves of one leased gate bench.
type timedGolden struct {
	src  eval.GoldenSource
	lane *lane
	p    *probe
}

func (s timedGolden) Golden(req eval.GoldenRequest) (trace.Trace, error) {
	s.p.mu.Lock()
	s.p.solves++
	s.p.mu.Unlock()
	defer s.lane.begin("spice.solve")()
	return s.src.Golden(req)
}

// timedCircuit times the transient solves of one leased composed bench.
type timedCircuit struct {
	src  eval.CircuitGoldenSource
	lane *lane
	p    *probe
}

func (s timedCircuit) GoldenNets(req eval.GoldenRequest) (map[string]trace.Trace, error) {
	s.p.mu.Lock()
	s.p.solves++
	s.p.mu.Unlock()
	defer s.lane.begin("spice.solve")()
	return s.src.GoldenNets(req)
}

// timedStore times the persistent tier under the golden cache. Writes
// are write-behind, so store.save covers encoding and enqueueing; the
// disk time shows up in the final Flush.
type timedStore struct {
	st *store.Store
	p  *probe
}

func (s timedStore) Load(k eval.GoldenKey) (trace.Trace, bool, error) {
	defer s.p.enter(k, "store.load", &s.p.loads)()
	return s.st.Load(k)
}

func (s timedStore) Save(k eval.GoldenKey, tr trace.Trace) error {
	defer s.p.enter(k, "store.save", &s.p.saves)()
	return s.st.Save(k, tr)
}

func (s timedStore) LoadSet(k eval.GoldenKey) (map[string]trace.Trace, bool, error) {
	defer s.p.enter(k, "store.load", &s.p.loads)()
	return s.st.LoadSet(k)
}

func (s timedStore) SaveSet(k eval.GoldenKey, set map[string]trace.Trace) error {
	defer s.p.enter(k, "store.save", &s.p.saves)()
	return s.st.SaveSet(k, set)
}

func (s timedStore) Flush() error { return s.st.Flush() }

// prepared is one operating point prepared under spans: the model set,
// the pooled golden source seeded with the measuring bench, and the
// solver traffic of the measurement itself.
type prepared struct {
	models   gate.Models
	pool     *eval.BenchSource
	measured spice.SolverStats
}

// tracedPrep mirrors eval.PrepareOperatingPoint stage by stage.
func tracedPrep(l *lane, g gate.Gate, p nor.Params, expDMin float64) (*prepared, error) {
	end := l.begin("prep.bench")
	bench, err := g.NewBench(p)
	end()
	if err != nil {
		return nil, fmt.Errorf("gate %s: bench: %w", g.Name(), err)
	}
	end = l.begin("prep.measure")
	meas, err := bench.Measure()
	end()
	if err != nil {
		return nil, fmt.Errorf("gate %s: measure: %w", g.Name(), err)
	}
	end = l.begin("prep.fit")
	models, err := g.BuildModels(meas, p.Supply, expDMin)
	end()
	if err != nil {
		return nil, fmt.Errorf("gate %s: models: %w", g.Name(), err)
	}
	pr := &prepared{models: models, pool: eval.NewGateBenchSource(bench)}
	if s, ok := bench.(eval.SolverStatser); ok {
		pr.measured = s.SolverStats()
	}
	return pr, nil
}

// applyModel runs one model of a gate's set over its inputs, as
// eval.RunModels does for a gate and the circuit dataflow per instance.
func applyModel(m gate.Models, name string, in []trace.Trace, until float64) (trace.Trace, error) {
	switch name {
	case eval.ModelInertial:
		return m.Inertial.Apply(m.Gate.Logic, in...), nil
	case eval.ModelExp:
		return dtsim.ApplyDelay(trace.Combine(m.Gate.Logic, in...), m.Exp), nil
	case eval.ModelHM:
		return m.HM.Apply(in, until)
	case eval.ModelHMNoDMin:
		return m.HMNoDMin.Apply(in, until)
	}
	return trace.Trace{}, fmt.Errorf("unknown model %q", name)
}

// batches mirrors the runner's automatic batch size: about two claims
// per worker, each claim leasing one bench for its consecutive units.
func batches(total, workers int) (size, n int) {
	size = max((total+2*workers-1)/(2*workers), 1)
	return size, (total + size - 1) / size
}

// inputsFor generates one unit's stimuli and its simulation horizon.
func inputsFor(l *lane, cfg gen.Config, seed int64) ([]trace.Trace, float64, error) {
	defer l.begin("gen")()
	in, err := gen.Traces(cfg, seed)
	if err != nil {
		return nil, 0, err
	}
	return in, gen.Horizon(in, 600*waveform.Pico), nil
}

// gateSpec is one gate job at an explicit operating point.
type gateSpec struct {
	Gate    string
	Params  nor.Params
	Configs []gen.Config
	Seeds   []int64
	ExpDMin float64
}

// tracedGate runs a gate job through the mirrored pipeline. st, when
// non-nil, is mounted under a fresh golden cache as the CLI's -store
// does; without it the job runs uncached, as fig7 without -store does.
func tracedGate(ctx context.Context, j gateSpec, st *store.Store, workers int) (*jobTrace, error) {
	t, pr := newTracer(), newProbe()
	l := t.lane(-1)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	endJob := l.begin("job")
	g, err := gate.Find(j.Gate)
	if err != nil {
		return nil, err
	}
	op, err := tracedPrep(l, g, j.Params, j.ExpDMin)
	if err != nil {
		return nil, err
	}
	var cache *eval.GoldenCache
	if st != nil {
		cache = eval.NewGoldenCache()
		cache.SetStore(timedStore{st: st, p: pr})
	}
	ns := len(j.Seeds)
	total := len(j.Configs) * ns
	parts := make([]eval.SeedResult, total)
	size, nb := batches(total, workers)
	endPool := l.begin("pool")
	poolSpan := l.top()
	err = runPool(ctx, nb, workers, func(bi int) error {
		wl := t.lane(poolSpan)
		leased, release, err := op.pool.Lease()
		if err != nil {
			return err
		}
		defer release()
		var src eval.GoldenSource = timedGolden{src: leased, lane: wl, p: pr}
		if cache != nil {
			src = eval.CachedSource{Gate: g.Name(), Bench: j.Params, Cache: cache, Src: src}
		}
		for i := bi * size; i < min((bi+1)*size, total); i++ {
			cfg, seed := j.Configs[i/ns], j.Seeds[i%ns]
			pr.bind(eval.GoldenKey{Gate: g.Name(), Bench: j.Params, Config: cfg, Seed: seed}, wl)
			if parts[i], err = tracedGateUnit(wl, src, op.models, cfg, seed); err != nil {
				return err
			}
		}
		return nil
	})
	endPool()
	if err != nil {
		return nil, err
	}
	end := l.begin("merge")
	rows := make([]eval.RunResult, len(j.Configs))
	for ci, cfg := range j.Configs {
		rows[ci] = eval.MergeSeedResults(cfg, parts[ci*ns:(ci+1)*ns])
	}
	end()
	if st != nil {
		end = l.begin("store.flush")
		err = st.Flush()
		end()
		if err != nil {
			return nil, err
		}
	}
	endJob()
	solver := op.pool.SolverStats()
	solver = subStats(solver, op.measured)
	events := 0
	for _, r := range rows {
		events += r.GoldenEv
	}
	jt := &jobTrace{result: &session.Result{Kind: session.KindGate, Gate: rows}, spans: t.snapshot()}
	jt.layers = layerMetrics(jt.spans, workers, solver, pr, cacheStats(cache), 1, 0, events, &ms0)
	return jt, nil
}

// tracedGateUnit mirrors eval.EvaluateSeedContext for one unit.
func tracedGateUnit(l *lane, src eval.GoldenSource, m gate.Models, cfg gen.Config, seed int64) (eval.SeedResult, error) {
	l.unit = fmt.Sprintf("%s seed %d", cfg.Name(), seed)
	defer l.begin("unit")()
	res := eval.SeedResult{Config: cfg, Seed: seed, Area: map[string]float64{}}
	inputs, until, err := inputsFor(l, cfg, seed)
	if err != nil {
		return res, err
	}
	end := l.begin("golden")
	g, err := src.Golden(eval.GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	end()
	if err != nil {
		return res, err
	}
	res.GoldenEv = g.NumEvents()
	outs := make([]trace.Trace, len(eval.ModelNames))
	for i, name := range eval.ModelNames {
		end := l.begin("model." + name)
		outs[i], err = applyModel(m, name, inputs, until)
		end()
		if err != nil {
			return res, err
		}
	}
	end = l.begin("score")
	for i, name := range eval.ModelNames {
		res.Area[name] = trace.DeviationArea(g, outs[i], 0, until)
	}
	end()
	return res, nil
}

// circuitSpec is one circuit job at an explicit operating point.
type circuitSpec struct {
	Netlist *netlist.Netlist
	Params  nor.Params
	Config  gen.Config
	Seeds   []int64
	ExpDMin float64
}

// tracedCircuit runs a circuit job through the mirrored pipeline, with
// an in-memory golden cache as a Session's circuit job has.
func tracedCircuit(ctx context.Context, j circuitSpec, workers int) (*jobTrace, error) {
	t, pr := newTracer(), newProbe()
	l := t.lane(-1)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	endJob := l.begin("job")
	nl := j.Netlist
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	ms := netlist.ModelSet{}
	for _, inst := range nl.Instances {
		g, err := gate.Find(inst.Gate)
		if err != nil {
			return nil, err
		}
		if _, ok := ms[g.Name()]; ok {
			continue
		}
		op, err := tracedPrep(l, g, j.Params, j.ExpDMin)
		if err != nil {
			return nil, err
		}
		ms[g.Name()] = op.models
	}
	end := l.begin("prep.bench")
	bench, err := netlist.NewBench(nl, j.Params)
	end()
	if err != nil {
		return nil, err
	}
	benchPool := eval.NewCircuitBenchSource(bench)
	cache := eval.NewGoldenCache()
	key := nl.ContentKey()
	parts := make([]eval.CircuitSeedResult, len(j.Seeds))
	size, nb := batches(len(j.Seeds), workers)
	endPool := l.begin("pool")
	poolSpan := l.top()
	err = runPool(ctx, nb, workers, func(bi int) error {
		wl := t.lane(poolSpan)
		leased, release, err := benchPool.LeaseCircuit()
		if err != nil {
			return err
		}
		defer release()
		src := eval.CachedCircuitSource{Key: key, Bench: j.Params, Cache: cache, Src: timedCircuit{src: leased, lane: wl, p: pr}}
		for i := bi * size; i < min((bi+1)*size, len(j.Seeds)); i++ {
			if parts[i], err = tracedCircuitUnit(wl, src, nl, ms, j.Config, j.Seeds[i]); err != nil {
				return err
			}
		}
		return nil
	})
	endPool()
	if err != nil {
		return nil, err
	}
	end = l.begin("merge")
	res := eval.MergeCircuitSeedResults(nl, j.Config, parts)
	res.Solver = benchPool.SolverStats()
	end()
	endJob()
	events := 0
	for _, net := range res.Nets {
		events += res.GoldenEv[net]
	}
	jt := &jobTrace{result: &session.Result{Kind: session.KindCircuit, Circuit: &res}, spans: t.snapshot()}
	jt.layers = layerMetrics(jt.spans, workers, res.Solver, pr, cacheStats(cache), len(ms), 0, events, &ms0)
	return jt, nil
}

// tracedCircuitUnit mirrors eval.EvaluateCircuitSeedContext for one
// unit: one netlist.Walk per model, each followed by scoring every
// recorded net.
func tracedCircuitUnit(l *lane, src eval.CircuitGoldenSource, nl *netlist.Netlist, ms netlist.ModelSet,
	cfg gen.Config, seed int64) (eval.CircuitSeedResult, error) {
	l.unit = fmt.Sprintf("%s seed %d", cfg.Name(), seed)
	defer l.begin("unit")()
	res := eval.CircuitSeedResult{Config: cfg, Seed: seed, Nets: nl.Recorded(),
		Area: map[string]map[string]float64{}, GoldenEv: map[string]int{}}
	inputs, until, err := inputsFor(l, cfg, seed)
	if err != nil {
		return res, err
	}
	end := l.begin("golden")
	g, err := src.GoldenNets(eval.GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	end()
	if err != nil {
		return res, err
	}
	for _, net := range res.Nets {
		if _, ok := g[net]; !ok {
			return res, fmt.Errorf("golden run returned no trace for net %q", net)
		}
		res.Area[net] = map[string]float64{}
		res.GoldenEv[net] = g[net].NumEvents()
	}
	for _, model := range eval.ModelNames {
		end := l.begin("model." + model)
		nets, err := nl.Walk(inputs, func(inst netlist.Instance, _ gate.Gate, in []trace.Trace) (trace.Trace, error) {
			m, err := ms.For(inst)
			if err != nil {
				return trace.Trace{}, err
			}
			return applyModel(m, model, in, until)
		})
		end()
		if err != nil {
			return res, err
		}
		end = l.begin("score")
		for _, net := range res.Nets {
			res.Area[net][model] = trace.DeviationArea(g[net], nets[net], 0, until)
		}
		end()
	}
	return res, nil
}

// runPool fans n claims over the workers and returns the first error.
func runPool(ctx context.Context, n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	ctxErr := pool.RunContext(ctx, n, workers, func(i int) error {
		errs[i] = fn(i)
		return errs[i]
	}, nil)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctxErr
}

func cacheStats(c *eval.GoldenCache) eval.CacheStats {
	if c == nil {
		return eval.CacheStats{}
	}
	return c.Stats()
}

// subStats returns a − b counter by counter.
func subStats(a, b spice.SolverStats) spice.SolverStats {
	return spice.SolverStats{
		Steps: a.Steps - b.Steps, Rejected: a.Rejected - b.Rejected,
		Iterations: a.Iterations - b.Iterations, Factorizations: a.Factorizations - b.Factorizations,
		Reused: a.Reused - b.Reused, LinearReuses: a.LinearReuses - b.LinearReuses,
		SparseFactorizations: a.SparseFactorizations - b.SparseFactorizations,
		SparseFallbacks:      a.SparseFallbacks - b.SparseFallbacks,
		SymbolicHits:         a.SymbolicHits - b.SymbolicHits, SymbolicMisses: a.SymbolicMisses - b.SymbolicMisses,
		Supernodes: a.Supernodes - b.Supernodes,
	}
}

// layerMetrics turns one traced job into the per-layer metrics: self
// time per layer from the spans, and the counts read at the
// boundaries. paramMisses is the number of operating points the job
// prepared; paramHits those it reused.
func layerMetrics(spans []span, workers int, solver spice.SolverStats, pr *probe, cs eval.CacheStats,
	paramMisses, paramHits, events int, ms0 *runtime.MemStats) map[string]float64 {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	self := selfByName(spans)
	sec := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
	m := zeroLayers()
	m["spice.solve_s"] = sec("spice.solve")
	m["spice.solves"] = float64(pr.solves)
	m["spice.steps"] = float64(solver.Steps)
	m["spice.rejected"] = float64(solver.Rejected)
	m["spice.iterations"] = float64(solver.Iterations)
	m["spice.factorizations"] = float64(solver.Factorizations)
	if solver.Iterations > 0 {
		m["spice.ns_per_iter"] = sec("spice.solve") * 1e9 / float64(solver.Iterations)
	}
	m["sparse.factorizations"] = float64(solver.SparseFactorizations)
	m["sparse.fallbacks"] = float64(solver.SparseFallbacks)
	m["sparse.linear_reuses"] = float64(solver.LinearReuses)
	m["sparse.symbolic_hits"] = float64(solver.SymbolicHits)
	m["sparse.symbolic_misses"] = float64(solver.SymbolicMisses)
	m["sparse.supernodes"] = float64(solver.Supernodes)
	m["model.inertial_s"] = sec("model." + eval.ModelInertial)
	m["model.exp_s"] = sec("model." + eval.ModelExp)
	m["model.hm_s"] = sec("model." + eval.ModelHM)
	m["model.hm_nodmin_s"] = sec("model." + eval.ModelHMNoDMin)
	m["param.hits"] = float64(paramHits)
	m["param.misses"] = float64(paramMisses)
	m["prep.bench_s"] = sec("prep.bench")
	m["prep.measure_s"] = sec("prep.measure")
	m["prep.fit_s"] = sec("prep.fit")
	m["golden.lookups"] = float64(cs.Hits + cs.Misses)
	m["golden.hits"] = float64(cs.Hits)
	m["golden.misses"] = float64(cs.Misses)
	m["golden.disk_hits"] = float64(cs.DiskHits)
	if n := cs.Hits + cs.Misses; n > 0 {
		m["golden.hit_ratio"] = float64(cs.Hits+cs.DiskHits) / float64(n)
	}
	m["golden.s"] = sec("golden")
	m["golden.events"] = float64(events)
	m["store.loads"] = float64(pr.loads)
	m["store.load_s"] = sec("store.load")
	m["store.saves"] = float64(pr.saves)
	m["store.save_s"] = sec("store.save")
	m["store.flush_s"] = sec("store.flush")
	m["gen.s"] = sec("gen")
	m["score.s"] = sec("score")
	m["merge.s"] = sec("merge")
	m["session.self_s"] = sec("job", "pool")
	m["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)

	st := selfTimes(spans)
	var poolDur, busy time.Duration
	coverage := 1.0
	for i, s := range spans {
		switch s.Name {
		case "pool":
			poolDur += s.dur()
		case "unit":
			busy += s.dur()
			if d := s.dur(); d > 0 {
				coverage = min(coverage, 1-float64(st[i])/float64(d))
			}
		}
	}
	if poolDur > 0 {
		m["pool.busy_ratio"] = float64(busy) / (float64(poolDur) * float64(workers))
	}
	m["trace.unit_coverage"] = coverage
	return m
}
