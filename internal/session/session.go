// Package session runs every evaluation of the accuracy study on one
// long-lived, concurrency-safe engine. The paper's pipeline is a single
// flow — golden simulation, model parametrization, trace comparison —
// and its workloads (gate evaluation, circuit evaluation, scenario
// sweeps) share the same resources. A Session owns them once:
//
//   - the bounded worker budget every workload schedules on,
//   - the shared golden-trace cache (eval.GoldenCache), and
//   - the shared parametrization cache (eval.ParamCache) memoizing
//     Gate.NewBench → Measure → BuildModels per operating point,
//
// so repeated and mixed workloads at the same operating point never
// re-simulate a golden transient or re-fit a model set. All workloads
// are values submitted through one door — Session.Evaluate(ctx, job)
// with a GateJob, CircuitJob or SweepJob — returning a uniform Result
// (per-config / per-net / per-scenario rows plus cache and timing
// stats) and reporting through a single Progress stream. Cancellation
// via the context is plumbed down to the unit workers: a cancelled job
// stops claiming units and aborts in-flight units at their next stage
// boundary. Every flavour turns into evaluation blocks through the
// session's one planner, which prepares each operating point once, and
// runs its (config, seed) units through the one batched fan-out in
// internal/eval (eval.Run). Package sweep contributes only the grid: a
// SweepJob expands its spec there and folds the units into its report.
package session

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/la/sparse"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/sweep"
)

// Options configures a Session.
type Options struct {
	// Workers bounds the worker pool each job schedules on. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Workers int

	// Solver selects the session's default MNA solver mode
	// (spice.DenseExact or spice.SparseFast). It applies to jobs that do
	// not supply bench parameters of their own; explicit job parameters
	// carry their own Solver field. The mode is part of every cache and
	// store key, so mixed-mode sessions never share golden traces or
	// operating points across modes.
	Solver spice.SolverMode

	// GoldenBudget, when positive, bounds the golden cache's memory: the
	// total eviction cost (stored trace transitions) completed entries
	// may hold before cost-based LRU eviction kicks in. Zero keeps the
	// cache unbounded.
	GoldenBudget int64

	// ParamLimit, when positive, bounds the number of operating points
	// the parametrization cache retains (LRU). Zero keeps it unbounded.
	ParamLimit int

	// BaseParams overrides the bench parameters jobs fall back to when
	// they carry none of their own: the session's operating point. Nil
	// selects nor.DefaultParams() under the session's Solver mode; a
	// non-nil value is used verbatim (its own Solver field included).
	// A server built on the session uses this to pin the operating
	// point all tenants share.
	BaseParams *nor.Params

	// Store, when non-nil, mounts a persistent on-disk tier (e.g.
	// *store.Store) below the session's golden cache: in-memory misses
	// are served from disk when a prior process already solved them, and
	// freshly computed traces spill to disk in the background, so
	// fig7/sweep/circuit runs warm-start across process restarts. A
	// store that also implements eval.PointStore (store.Store does) is
	// mounted below the parametrization cache too, so a warm start also
	// skips measuring and fitting its operating points; sessions that
	// mount one store share its traces and points. The caller keeps
	// ownership and must Close the store after the session's last use.
	Store eval.PersistentStore
}

// Session is the long-lived evaluation engine: one value owns the
// worker budget, the golden-trace cache and the parametrization cache,
// and every workload — single-gate accuracy runs, circuit-level runs,
// scenario sweeps — is submitted through Evaluate. A Session is safe
// for concurrent use; concurrent jobs share the caches (including
// in-flight singleflight deduplication) but each schedules its units on
// its own bounded pool.
type Session struct {
	workers int
	solver  spice.SolverMode
	base    *nor.Params
	golden  *eval.GoldenCache
	params  *eval.ParamCache
	store   eval.PersistentStore
}

// New builds a Session. opt zero value selects all defaults.
func New(opt Options) *Session {
	s := &Session{workers: opt.Workers, solver: opt.Solver, base: opt.BaseParams,
		golden: eval.NewGoldenCache(), params: eval.NewParamCache(), store: opt.Store}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if opt.Store != nil {
		s.golden.SetStore(opt.Store)
	}
	if ps, ok := opt.Store.(eval.PointStore); ok {
		s.params.SetStore(ps)
	}
	if opt.GoldenBudget > 0 {
		s.golden.SetLimit(opt.GoldenBudget)
	}
	if opt.ParamLimit > 0 {
		s.params.SetLimit(opt.ParamLimit)
	}
	return s
}

// GoldenCache returns the session's shared golden-trace cache.
func (s *Session) GoldenCache() *eval.GoldenCache { return s.golden }

// ParamCache returns the session's shared parametrization cache.
func (s *Session) ParamCache() *eval.ParamCache { return s.params }

// Workers returns the session's default worker budget.
func (s *Session) Workers() int { return s.workers }

// Close drains the session's durable state: when a persistent store is
// mounted and supports flushing (store.Store does), every golden trace
// still queued on its write-behind path is written out before Close
// returns. The session stays usable afterwards — Close is a flush
// point, not a teardown — and the caller keeps ownership of the store
// itself (see Options.Store). A server shutdown or a short-lived CLI
// run calls Close so freshly computed traces cannot be dropped.
func (s *Session) Close() error {
	if f, ok := s.store.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Snapshot is a point-in-time view of the session's shared resources,
// for operational surfaces (the serve mode's /metrics endpoint). All
// counters are session-lifetime values.
type Snapshot struct {
	Golden   eval.CacheStats   `json:"golden"`   // shared golden-trace cache
	Params   eval.ParamStats   `json:"params"`   // parametrization cache
	Solver   spice.SolverStats `json:"solver"`   // aggregate over cached operating points
	Symbolic sparse.CacheStats `json:"symbolic"` // process-wide symbolic-factorization cache
	Workers  int               `json:"workers"`  // default worker budget
}

// Snapshot captures the session's cache and solver counters. The
// solver picture aggregates the pooled benches of every operating
// point in the parametrization cache (idle instances only — between
// jobs the pools are fully idle, so a quiescent snapshot sees every
// transient those sources ever ran).
func (s *Session) Snapshot() Snapshot {
	return Snapshot{
		Golden:   s.golden.Stats(),
		Params:   s.params.Stats(),
		Solver:   s.params.SolverStats(),
		Symbolic: spice.SharedSymbolicCache().Stats(),
		Workers:  s.workers,
	}
}

// Kind names a job (and result) flavour.
type Kind string

// The three workload flavours a Session evaluates.
const (
	KindGate    Kind = "gate"
	KindCircuit Kind = "circuit"
	KindSweep   Kind = "sweep"
)

// Phase names reported through Progress.
const (
	PhasePrepare = "prepare" // operating-point preparation steps (sweep jobs)
	PhaseEval    = "eval"    // (config/scenario, seed) evaluation units
)

// Progress is the session's single progress stream: one event per
// completed step of any job flavour. Calls to a job's Progress callback
// are serialized; steps may complete in any order.
type Progress struct {
	Kind      Kind       // submitting job's flavour
	Phase     string     // PhasePrepare or PhaseEval
	Config    gen.Config // evaluated configuration (gate and circuit units)
	Scenario  int        // scenario index (sweep units; -1 otherwise)
	Seed      int64      // seed of the completed unit (eval phase)
	Completed int        // steps of this phase finished so far
	Total     int        // total steps of this phase
	Err       error      // the step's error, if any
}

// Job is a workload value submitted to Session.Evaluate: a GateJob,
// CircuitJob or SweepJob.
type Job interface {
	kind() Kind
}

// GateJob evaluates the Fig. 7 accuracy pipeline for one gate at one
// operating point over one or more waveform configurations. The zero
// value of every optional field selects a default: the registry's
// default gate, the session's bench parameters and DefaultExpDMin. The
// model set is prepared through (or served from) the session's
// parametrization cache.
type GateJob struct {
	// Gate is the registry name ("nor2", "nand2", "nor3"); empty
	// selects the default gate.
	Gate string
	// Params overrides the bench parameters; nil selects the session's
	// operating point (see Options.BaseParams).
	Params *nor.Params
	// Configs lists the waveform configurations; each is evaluated over
	// Seeds and reported as one Result row. Required.
	Configs []gen.Config
	// Seeds lists the repetitions per configuration. Required.
	Seeds []int64
	// ExpDMin overrides the exp channel's empirical pure delay;
	// 0 selects DefaultExpDMin.
	ExpDMin float64
	// NoCache evaluates without golden-trace memoization entirely —
	// for workloads whose (config, seed) units never repeat, where
	// caching would only grow memory without ever hitting.
	NoCache bool
	// Progress, when non-nil, receives the job's progress events.
	Progress func(Progress)
}

func (GateJob) kind() Kind { return KindGate }

// CircuitJob evaluates the circuit-level accuracy pipeline for one
// netlist at one operating point under one waveform configuration.
// Zero-value optional fields select defaults as in GateJob; the member
// gates' model sets are prepared through (or served from) the session's
// parametrization cache.
type CircuitJob struct {
	// Netlist is the evaluated circuit. Required.
	Netlist *netlist.Netlist
	// Params overrides the bench parameters; nil selects the session's
	// operating point.
	Params *nor.Params
	// Config is the waveform configuration driving the primary inputs.
	Config gen.Config
	// Seeds lists the repetitions. Required.
	Seeds []int64
	// ExpDMin overrides the exp channel's pure delay; 0 selects
	// DefaultExpDMin.
	ExpDMin float64
	// Progress, when non-nil, receives the job's progress events.
	Progress func(Progress)
}

func (CircuitJob) kind() Kind { return KindCircuit }

// SweepJob evaluates a declarative scenario grid. The sweep shares the
// session's caches: golden traces memoize across the grid and across
// jobs, and operating points prepared by earlier jobs (or sweeps) are
// not re-measured.
type SweepJob struct {
	// Spec is the scenario grid. Required.
	Spec sweep.Spec
	// Progress, when non-nil, receives the job's progress events.
	Progress func(Progress)
}

func (SweepJob) kind() Kind { return KindSweep }

// Stats reports a job's resource picture: snapshots of the cache
// counters taken when the job finished, and the job's wall time.
// Golden describes the session's golden cache (zero when a GateJob
// opted out with NoCache); Params describes the session's shared
// parametrization cache. Snapshots are cache-lifetime values,
// not per-job deltas — a warm session shows the accumulated
// effectiveness.
type Stats struct {
	Golden      eval.CacheStats // golden cache snapshot
	Params      eval.ParamStats // parametrization cache snapshot
	WallSeconds float64         // job wall time
	// Solver aggregates the MNA solver traffic visible at job end: the
	// job's own bench pools plus the cumulative counters of every
	// operating point in the session's parametrization cache (their
	// measurement transients and all golden runs they served). Like the
	// cache snapshots, this is a cache-lifetime picture, not a per-job
	// delta.
	Solver spice.SolverStats
}

// Result is the uniform outcome of Session.Evaluate: exactly one of
// the per-flavour payloads is populated (matching Kind), plus the
// cache and timing stats every flavour shares.
type Result struct {
	Kind Kind

	// Gate holds one merged row per GateJob configuration, in input
	// order.
	Gate []eval.RunResult
	// Models is the model set a GateJob evaluated, for callers that
	// report fit parameters.
	Models *gate.Models

	// Circuit holds a CircuitJob's per-net accuracy rows.
	Circuit *eval.CircuitResult

	// Sweep holds a SweepJob's report.
	Sweep *sweep.Report

	Stats Stats
}

// Evaluate runs one job to completion on the session's resources.
// It is safe to call concurrently; ctx cancels the job (no new units
// claimed, in-flight units stop at their next stage boundary).
func (s *Session) Evaluate(ctx context.Context, job Job) (*Result, error) {
	start := time.Now()
	var (
		res *Result
		err error
	)
	switch j := job.(type) {
	case GateJob:
		j.Progress = serializeProgress(j.Progress)
		res, err = s.evaluateGate(ctx, j)
	case CircuitJob:
		j.Progress = serializeProgress(j.Progress)
		res, err = s.evaluateCircuit(ctx, j)
	case SweepJob:
		j.Progress = serializeProgress(j.Progress)
		res, err = s.evaluateSweep(ctx, j)
	case nil:
		return nil, fmt.Errorf("session: nil job")
	default:
		return nil, fmt.Errorf("session: unknown job type %T", job)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.Params = s.params.Stats()
	res.Stats.Solver.Add(s.params.SolverStats())
	res.Stats.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// serializeProgress wraps a job's Progress callback in a per-job mutex
// so events are delivered one at a time, making the delivery guarantee
// documented on Progress independent of which engine (or pool) runs the
// job. Within one phase the Completed counter is then strictly
// increasing as observed by the callback — which is what lets the serve
// mode's SSE stream assign deterministic per-job sequence numbers.
func serializeProgress(fn func(Progress)) func(Progress) {
	if fn == nil {
		return nil
	}
	var mu sync.Mutex
	return func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		fn(p)
	}
}

// paramsOr resolves a job's bench parameters: explicit parameters are
// used as-is (their Solver field included); nil selects the session's
// base operating point — Options.BaseParams when set, else the
// calibrated defaults under the session's default solver mode.
func (s *Session) paramsOr(p *nor.Params) nor.Params {
	if p != nil {
		return *p
	}
	if s.base != nil {
		return *s.base
	}
	d := nor.DefaultParams()
	d.Solver = s.solver
	return d
}

// evalProgress adapts the fan-out's progress events onto the session
// stream; config maps a block index to its configuration.
func evalProgress(kind Kind, fn func(Progress), config func(block int) gen.Config) func(eval.Progress) {
	if fn == nil {
		return nil
	}
	return func(p eval.Progress) {
		fn(Progress{
			Kind: kind, Phase: PhaseEval, Config: config(p.Block), Scenario: -1,
			Seed: p.Seed, Completed: p.Completed, Total: p.Total, Err: p.Err,
		})
	}
}

// evaluateGate plans one block per configuration — one operating point
// behind the golden cache unless the job opts out — and runs them on
// the session's workers.
func (s *Session) evaluateGate(ctx context.Context, j GateJob) (*Result, error) {
	if len(j.Configs) == 0 {
		return nil, fmt.Errorf("session: GateJob.Configs is empty")
	}
	if len(j.Seeds) == 0 {
		return nil, fmt.Errorf("session: GateJob.Seeds is empty")
	}
	cache := s.golden
	if j.NoCache {
		cache = nil
	}
	p := s.paramsOr(j.Params)
	targets := make([]target, len(j.Configs))
	for i, cfg := range j.Configs {
		targets[i] = target{Gate: j.Gate, Params: p, Config: cfg}
	}
	// Gate and circuit jobs report one event per evaluation unit and
	// none for the prepare phase.
	blocks, _, err := s.plan(ctx, targets, j.ExpDMin, cache, nil)
	if err != nil {
		return nil, err
	}
	models := blocks[0].Models
	parts, _, err := eval.Run(ctx, blocks, j.Seeds, &eval.Options{
		Workers:  s.workers,
		Progress: evalProgress(KindGate, j.Progress, func(b int) gen.Config { return j.Configs[b] }),
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: KindGate, Gate: make([]eval.RunResult, len(j.Configs)), Models: &models}
	for i, cfg := range j.Configs {
		res.Gate[i] = eval.MergeSeedResults(cfg, parts[i*len(j.Seeds):(i+1)*len(j.Seeds)])
	}
	if cache != nil {
		res.Stats.Golden = cache.Stats()
	}
	return res, nil
}

// evaluateCircuit validates the netlist, plans its block — member-gate
// model sets from the parametrization cache, a job-private composed
// bench pool behind the session's golden cache — and runs the circuit
// pipeline on the session's workers.
func (s *Session) evaluateCircuit(ctx context.Context, j CircuitJob) (*Result, error) {
	nl := j.Netlist
	if nl == nil {
		return nil, fmt.Errorf("session: CircuitJob.Netlist is nil")
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if len(j.Seeds) == 0 {
		return nil, fmt.Errorf("session: CircuitJob.Seeds is empty")
	}
	t := target{Netlist: nl, Params: s.paramsOr(j.Params), Config: j.Config}
	blocks, pools, err := s.plan(ctx, []target{t}, j.ExpDMin, s.golden, nil)
	if err != nil {
		return nil, err
	}
	_, parts, err := eval.Run(ctx, blocks, j.Seeds, &eval.Options{
		Workers:  s.workers,
		Progress: evalProgress(KindCircuit, j.Progress, func(int) gen.Config { return j.Config }),
	})
	if err != nil {
		return nil, err
	}
	res := eval.MergeCircuitSeedResults(nl, j.Config, parts)
	res.Solver = pools[0].SolverStats()
	// The composed-bench pool is job-private; the shared-cache
	// aggregate is added by Evaluate.
	return &Result{Kind: KindCircuit, Circuit: &res, Stats: Stats{Golden: s.golden.Stats(), Solver: res.Solver}}, nil
}

// evaluateSweep expands the scenario grid, plans one block per
// scenario — every distinct operating point prepared once, served from
// the parametrization cache when an earlier job prepared it — and runs
// them all on one fan-out over the session's workers behind its golden
// cache. On the first failing step the pool stops picking up new work
// and the error of the earliest failed step (grid-major, seed-minor) is
// returned.
func (s *Session) evaluateSweep(ctx context.Context, j SweepJob) (*Result, error) {
	if j.Spec.Bench == nil {
		// A spec without explicit bench parameters inherits the session's
		// default solver mode, like the other job flavours.
		p := s.paramsOr(nil)
		j.Spec.Bench = &p
	}
	scenarios, err := sweep.Expand(j.Spec)
	if err != nil {
		return nil, err
	}
	seeds := j.Spec.SeedList()
	start := time.Now()
	// Each scenario's Tally collects its golden hits and misses and its
	// unit time.
	tallies := make([]eval.Tally, len(scenarios))
	targets := make([]target, len(scenarios))
	for i, sc := range scenarios {
		targets[i] = target{Gate: sc.Gate, Netlist: sc.Circuit, Params: sc.Params, Config: sc.Config,
			Label: fmt.Sprintf("sweep: scenario %d (%s)", i, sc.Name()), Tally: &tallies[i]}
	}
	var prepared func(completed, total int, err error)
	var progress func(eval.Progress)
	if fn := j.Progress; fn != nil {
		prepared = func(completed, total int, err error) {
			fn(Progress{Kind: KindSweep, Phase: PhasePrepare, Scenario: -1, Completed: completed, Total: total, Err: err})
		}
		progress = func(p eval.Progress) {
			fn(Progress{
				Kind: KindSweep, Phase: PhaseEval, Scenario: p.Block,
				Seed: p.Seed, Completed: p.Completed, Total: p.Total, Err: p.Err,
			})
		}
	}
	blocks, _, err := s.plan(ctx, targets, j.Spec.ExpDMin, s.golden, prepared)
	if err != nil {
		return nil, err
	}
	gates, circuits, err := eval.Run(ctx, blocks, seeds, &eval.Options{Workers: s.workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	rep := sweep.NewReport(scenarios, seeds, gates, circuits, tallies)
	rep.WallSeconds = time.Since(start).Seconds()
	return &Result{Kind: KindSweep, Sweep: rep, Stats: Stats{Golden: s.golden.Stats()}}, nil
}
