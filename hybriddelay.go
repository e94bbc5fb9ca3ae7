// Package hybriddelay is a Go implementation of the hybrid delay model
// for multi-input gates from
//
//	A. Ferdowsi, J. Maier, D. Öhlinger, U. Schmid:
//	"A Simple Hybrid Model for Accurate Delay Modeling of a
//	Multi-Input Gate", DATE 2022 (arXiv:2111.11182),
//
// together with every substrate the paper's evaluation depends on: a
// transistor-level analog circuit simulator standing in for the SPICE
// golden reference, an event-driven digital timing simulator standing in
// for the Involution Tool, involution (IDM) and inertial delay channels,
// random trace generation, and the least-squares parametrization
// machinery.
//
// # The model in one paragraph
//
// A 2-input CMOS NOR gate is abstracted into a hybrid automaton with one
// mode per input state (A, B) ∈ {0,1}²: transistors become ideal
// switches (on-resistance R or open), so each mode is a 2-dimensional
// linear RC system in the internal node voltage V_N and the output
// voltage V_O. Mode switches occur — deferred by a pure delay δ_min — at
// input threshold crossings, with the state carried continuously. The
// gate delay is the time at which V_O crosses V_th = VDD/2. Because the
// channel sees both inputs, it reproduces multiple-input-switching (MIS,
// "Charlie") effects that single-input delay channels cannot.
//
// # Package layout
//
// This root package is a facade re-exporting the stable public surface.
// The implementation lives in internal packages:
//
//	internal/hybrid  - the four-mode model, delays, Charlie formulas,
//	                   parametrization, the 2-input digital channel and
//	                   the generalized switch-level SwitchGate channel
//	internal/spice   - MNA transient analog simulator (golden reference)
//	internal/nor     - testbench parameters and the transistor-level
//	                   NOR/NAND/NOR3 device stamps (paper Fig. 1 and
//	                   its structural variants)
//	internal/gate    - the gate registry and the one analog bench built
//	                   from Gate.Stamp: golden runs, Charlie probes and
//	                   model parametrization behind one Gate interface
//	                   (nor2 default, nand2, nor3), so the pipeline is
//	                   gate-generic
//	internal/dtsim   - event-driven digital timing simulator
//	internal/idm     - involution (exp / sum-exp) channels
//	internal/inertial- pure/inertial and arity-generic per-pin arc
//	                   baselines
//	internal/gen     - §VI random waveform configurations
//	internal/eval    - Fig. 7 deviation-area accuracy pipeline, keyed by
//	                   registered gate, with the golden-trace and
//	                   parametrization caches
//	internal/sweep   - scenario sweep engine: declarative grids of
//	                   operating points (gate × VDD scale × load scale ×
//	                   stimulus × seeds) evaluated on one shared worker
//	                   pool and golden-trace cache, reported as JSON/CSV
//	internal/session - the unified Session engine: one long-lived owner
//	                   of the worker pool and both caches, evaluating
//	                   gate, circuit and sweep jobs through a single
//	                   Job/Result surface with context cancellation
//	internal/serve   - the HTTP+JSON job service around one Session:
//	                   job registry, SSE progress streams, per-client
//	                   admission control and the loadgen harness
//	internal/store   - persistent content-addressed golden-trace store
//	internal/fit     - Nelder-Mead / Brent / Levenberg-Marquardt
//	internal/la, ode, roots, waveform, trace - math & signal substrates
//
// The cmd/hybridlab CLI exposes the registry through its -gate flag
// (and -list-gates): `hybridlab fig7 -gate nand2` runs the accuracy
// pipeline end-to-end against any registered gate, with nor2 remaining
// the default.
//
// # Quick start
//
//	p := hybriddelay.TableI()              // the paper's parameters
//	d, _ := p.FallingDelay(0)              // MIS delay at Delta = 0
//	fmt.Println(d)                         // ~28 ps
//
// See examples/ for runnable programs and EXPERIMENTS.md for the full
// paper-vs-measured record.
package hybriddelay

import (
	"context"
	"io"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/la/sparse"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/serve"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// ModelParams are the hybrid model's parameters: switch-level
// resistances R1..R4, capacitances C_N and C_O, the supply, and the pure
// delay DMin (paper Table I).
type ModelParams = hybrid.Params

// Characteristic bundles the six characteristic Charlie delays
// delta_fall(-inf, 0, +inf) and delta_rise(-inf, 0, +inf) (paper §V).
type Characteristic = hybrid.Characteristic

// FitOptions configures FitCharacteristic.
type FitOptions = hybrid.FitOptions

// FitReport describes a parametrization outcome.
type FitReport = hybrid.FitReport

// Mode is one of the four input states of the NOR gate.
type Mode = hybrid.Mode

// The four hybrid modes.
const (
	Mode00 = hybrid.Mode00
	Mode01 = hybrid.Mode01
	Mode10 = hybrid.Mode10
	Mode11 = hybrid.Mode11
)

// VNInitial selects the internal-node initial value for rising-output
// delay queries (paper Fig. 6).
type VNInitial = hybrid.VNInitial

// The three studied V_N initial values.
const (
	VNGround = hybrid.VNGround
	VNHalf   = hybrid.VNHalf
	VNSupply = hybrid.VNSupply
)

// Supply is the voltage environment (VDD and the logic threshold).
type Supply = waveform.Supply

// Trace is a digital signal trace (initial value plus transitions).
type Trace = trace.Trace

// BenchParams configures the transistor-level NOR golden reference.
type BenchParams = nor.Params

// Bench is the transistor-level analog golden bench of a gate; NewBench
// builds the paper's NOR. Its Pair probes drive Delay and Waveforms.
type Bench = gate.Analog

// Models bundles the delay models compared in the Fig. 7 evaluation.
type Models = eval.Models

// TraceConfig describes one random waveform configuration (§VI).
type TraceConfig = gen.Config

// ExpChannel is the IDM exponential involution channel.
type ExpChannel = idm.Exp

// NORArcs is the per-arc inertial NOR baseline.
type NORArcs = inertial.NORArcs

// InertialArcs is the arity-generic per-pin inertial baseline used by
// the gate-generic pipeline (NORArcs is its 2-input named form).
type InertialArcs = inertial.Arcs

// TableI returns the paper's fitted parameter values (Table I) with
// delta_min = 18 ps.
func TableI() ModelParams { return hybrid.TableI() }

// DefaultSupply returns the paper's 15nm environment: VDD = 0.8 V,
// V_th = 0.4 V.
func DefaultSupply() Supply { return waveform.DefaultSupply() }

// DefaultBenchParams returns the calibrated golden-reference testbench.
func DefaultBenchParams() BenchParams { return nor.DefaultParams() }

// NewBench instantiates the transistor-level NOR testbench.
func NewBench(p BenchParams) (*Bench, error) { return gate.NewAnalog(gate.NOR2, p) }

// FitCharacteristic calibrates model parameters against measured
// characteristic Charlie delays (paper §V).
func FitCharacteristic(target Characteristic, supply Supply, opt *FitOptions) (ModelParams, FitReport, error) {
	return hybrid.FitCharacteristic(target, supply, opt)
}

// AutoDMin returns the pure delay that makes the falling targets
// fittable (paper §IV): 2*delta_fall(0) - delta_fall(-inf).
func AutoDMin(target Characteristic) float64 { return hybrid.AutoDMin(target) }

// BuildModels parametrizes the Fig. 7 model set (inertial, exp-channel,
// hybrid with and without pure delay) from measured characteristic
// delays.
func BuildModels(target Characteristic, supply Supply, expDMin float64) (Models, error) {
	return gate.NOR2.BuildModels(gate.Measurement{Pair: target, Arcs: gate.NOR2Arcs(target)}, supply, expDMin)
}

// MeasureCharacteristic measures the six characteristic Charlie delays
// of a golden-reference bench.
func MeasureCharacteristic(bench *Bench) (Characteristic, error) {
	meas, err := bench.Measure()
	return meas.Pair, err
}

// RunResult aggregates the deviation areas of one evaluation run.
type RunResult = eval.RunResult

// SeedResult is the outcome of one (config, seed) evaluation unit.
type SeedResult = eval.SeedResult

// GoldenCache memoizes digitized golden traces keyed by (bench
// parameters, configuration, seed); every Session owns one
// (Session.GoldenCache), so its jobs never re-simulate an identical
// golden transient.
type GoldenCache = eval.GoldenCache

// Session API: one long-lived, concurrency-safe engine owning the
// bounded worker pool, the golden-trace cache and the parametrization
// cache (which memoizes the bench-measure-fit chain per operating
// point). All workloads — single-gate accuracy runs, circuit-level
// runs, scenario sweeps — are values submitted through one door,
// Session.Evaluate(ctx, job), returning a uniform Result and reporting
// through a single Progress stream, with context cancellation plumbed
// down to the unit workers. It is the only way to evaluate.

// Session is the unified evaluation engine; see NewSession.
type Session = session.Session

// SessionOptions configures a new Session: the worker budget, the
// solver mode and base operating point, cache bounds, and an optional
// persistent GoldenStore. Sessions that mount one store share its
// golden traces and prepared operating points.
type SessionOptions = session.Options

// NewSession builds a long-lived evaluation engine. The zero options
// value selects GOMAXPROCS workers and fresh private caches.
func NewSession(opt SessionOptions) *Session { return session.New(opt) }

// GoldenStore is the persistent, content-addressed on-disk golden
// store: the tier below the in-memory GoldenCache. Mount one into a
// Session via SessionOptions.Store; in-memory misses then read through
// to disk and freshly computed goldens are written behind without
// blocking evaluation. Close (or Flush) before process exit to drain
// pending writes.
type GoldenStore = store.Store

// GoldenStoreStats counts a store's disk traffic.
type GoldenStoreStats = store.Stats

// OpenGoldenStore opens (creating if missing) a persistent golden
// store rooted at dir. The directory carries a format-version stamp;
// opening a directory written by an incompatible version fails rather
// than serving stale bytes.
func OpenGoldenStore(dir string) (*GoldenStore, error) { return store.Open(dir) }

// Job is a workload value accepted by Session.Evaluate: a GateJob,
// CircuitJob or SweepJob.
type Job = session.Job

// GateJob evaluates the Fig. 7 pipeline for one gate at one operating
// point over one or more waveform configurations.
type GateJob = session.GateJob

// CircuitJob evaluates the circuit-level pipeline for one netlist.
type CircuitJob = session.CircuitJob

// SweepJob evaluates a declarative scenario grid.
type SweepJob = session.SweepJob

// JobKind names a job (and result) flavour.
type JobKind = session.Kind

// The three workload flavours a Session evaluates.
const (
	JobGate    = session.KindGate
	JobCircuit = session.KindCircuit
	JobSweep   = session.KindSweep
)

// Result is the uniform outcome of Session.Evaluate: the submitted
// flavour's rows plus shared cache and timing statistics.
type Result = session.Result

// SessionStats is the cache and timing picture attached to every
// Result.
type SessionStats = session.Stats

// Progress is the session's single progress stream: one event per
// completed preparation step or evaluation unit of any job flavour.
type Progress = session.Progress

// CacheStats reports golden-trace cache effectiveness counters
// (hits, misses, completed entries, evictions).
type CacheStats = eval.CacheStats

// SolverMode selects the linear-solver strategy of the analog
// transients behind an evaluation: SolverDenseExact is the
// bit-identical golden reference, SolverSparseFast the opt-in
// structurally sparse kernel (numerically equivalent — delays agree to
// well under a picosecond — but not bit-identical). Set it per
// operating point via BenchParams.Solver or session-wide via
// SessionOptions.Solver; the mode is part of every cache and store
// key, so the two paths never alias.
type SolverMode = spice.SolverMode

// The two linear-solver strategies.
const (
	SolverDenseExact = spice.DenseExact
	SolverSparseFast = spice.SparseFast
)

// ParseSolverMode parses a solver-mode flag value ("dense-exact" /
// "dense", "sparse-fast" / "sparse").
func ParseSolverMode(s string) (SolverMode, error) { return spice.ParseSolverMode(s) }

// SolverStats counts the MNA solver work behind an evaluation — steps,
// Newton iterations, factorizations, and the sparse path's savings
// (including symbolic-cache hits/misses and adopted supernodes).
// Every session Result carries one in Stats.Solver.
type SolverStats = spice.SolverStats

// SymbolicCacheStats reports the process-wide symbolic-factorization
// cache's counters: Misses counts Markowitz pilot analyses actually
// run, Hits counts solvers that adopted a shared analysis instead.
// The session snapshot (and the serve /metrics payload) carries one.
type SymbolicCacheStats = sparse.CacheStats

// SharedSymbolicCacheStats snapshots the process-wide symbolic cache
// every SparseFast solver resolves its analyses through.
func SharedSymbolicCacheStats() SymbolicCacheStats { return spice.SharedSymbolicCache().Stats() }

// ParamCache memoizes prepared operating points — the Gate.NewBench →
// Measure → BuildModels chain — per (gate, bench parameters, expDMin)
// content key with singleflight deduplication. Every Session owns one
// (Session.ParamCache); mount a GoldenStore to reuse prepared points
// across sessions and processes.
type ParamCache = eval.ParamCache

// ParamCacheStats reports parametrization-cache effectiveness counters.
type ParamCacheStats = eval.ParamStats

// DefaultSessionExpDMin is the exp channel's empirical pure delay a
// session job applies when not overridden (paper: 20 ps).
const DefaultSessionExpDMin = session.DefaultExpDMin

// SessionSnapshot is a point-in-time view of a session's shared
// resources (caches, aggregate solver traffic, worker budget) —
// the /metrics payload's session section.
type SessionSnapshot = session.Snapshot

// Serving API: `hybridlab serve` exposes one Session as a long-lived
// multi-tenant HTTP+JSON job service — POST /v1/jobs accepts a
// JobSpec, GET /v1/jobs/{id} reports status and result, GET
// /v1/jobs/{id}/events streams progress over SSE, DELETE cancels, and
// GET /metrics exposes the cache/solver/store/admission counters. An
// admission gate bounds concurrently running jobs globally and per
// client with a bounded FIFO backlog (overflow answers 429), and
// Shutdown drains in-flight jobs and flushes the golden store.

// JobServer is the HTTP service around one shared Session.
type JobServer = serve.Server

// JobServerOptions configures NewJobServer: the session (required),
// an optionally mounted golden store, and the admission bounds.
type JobServerOptions = serve.Options

// NewJobServer builds the HTTP job service; mount it on any
// http.Server (it implements http.Handler).
func NewJobServer(opt JobServerOptions) (*JobServer, error) { return serve.NewServer(opt) }

// JobSpec is the wire form of a job submission: a gate, circuit or
// sweep workload by value, with no bench parameters — the server pins
// the operating point, so tenants share its caches.
type JobSpec = serve.JobSpec

// JobState is a served job's lifecycle state.
type JobState = serve.State

// The served job lifecycle.
const (
	JobQueued    = serve.StateQueued
	JobRunning   = serve.StateRunning
	JobDone      = serve.StateDone
	JobFailed    = serve.StateFailed
	JobCancelled = serve.StateCancelled
)

// JobStatus is the GET /v1/jobs/{id} payload.
type JobStatus = serve.JobStatus

// JobEvent is one entry of a served job's progress event log (the SSE
// stream's data frames).
type JobEvent = serve.Event

// ServerMetrics is the GET /metrics payload.
type ServerMetrics = serve.Metrics

// AdmissionStats counts the admission gate's decisions.
type AdmissionStats = serve.AdmissionStats

// LoadOptions configures RunServeLoad's concurrent mixed-client load.
type LoadOptions = serve.LoadOptions

// LoadReport is the BENCH_serve.json payload: latency percentiles,
// throughput and the byte-identity verdict against a one-shot
// reference session.
type LoadReport = serve.LoadReport

// RunServeLoad drives concurrent mixed clients against a running job
// server and assembles the latency/throughput report (`hybridlab
// loadgen`).
func RunServeLoad(ctx context.Context, baseURL string, opt LoadOptions) (*LoadReport, error) {
	return serve.RunLoad(ctx, baseURL, opt)
}

// CanonicalServeResultJSON projects a Result onto its deterministic
// content — stripping timings and cache counters — so server results
// can be compared byte-for-byte against one-shot runs.
func CanonicalServeResultJSON(res *Result) ([]byte, error) { return serve.CanonicalResultJSON(res) }

// Gate-registry API: the evaluation pipeline is generic over registered
// multi-input gates — NOR2 (the paper's gate and the default), its
// structural dual NAND2 and the 3-input NOR3 extension.

// GateSpec describes one registered gate: arity, boolean function,
// golden-bench construction, characteristic measurement and model
// parametrization hooks.
type GateSpec = gate.Gate

// GateBench is an instantiated transistor-level golden bench of a
// registered gate.
type GateBench = gate.Bench

// GateMeasurement bundles a bench's characteristic Charlie delays and
// per-pin SIS arcs — the input of GateSpec.BuildModels.
type GateMeasurement = gate.Measurement

// GateModel is one parametrized delay model applied to input traces.
type GateModel = gate.Model

// Gates lists the registered gate names in sorted order.
func Gates() []string { return gate.Names() }

// LookupGate returns the registered gate of the given name.
func LookupGate(name string) (GateSpec, bool) { return gate.Lookup(name) }

// DefaultGate returns the paper's gate, the 2-input NOR.
func DefaultGate() GateSpec { return gate.Default() }

// Netlist API: declarative multi-gate circuits over registered gates,
// elaborated down both sides of the accuracy pipeline — flattened into
// one composed transistor-level golden circuit on the analog side, and
// into either the event-driven simulator (with a pluggable per-gate
// channel policy) or the offline per-gate delay models on the digital
// side, with per-net accuracy scoring.

// Netlist is a multi-gate circuit description: instances of registered
// gates wired by named nets, validated for arity, single drivers and
// acyclicity.
type Netlist = netlist.Netlist

// NetlistInstance is one gate instantiation inside a Netlist.
type NetlistInstance = netlist.Instance

// NetlistModels maps gate registry names to their parametrized model
// sets — one entry per distinct gate a netlist uses.
type NetlistModels = netlist.ModelSet

// CircuitBench is a netlist flattened into one composed transistor-
// level MNA circuit — the analog golden reference of circuit-level
// evaluation, producing a digitized trace per recorded net.
type CircuitBench = netlist.Bench

// CircuitResult aggregates a circuit evaluation: per-net and total
// deviation areas with inertial-normalized ratios.
type CircuitResult = eval.CircuitResult

// CircuitSeedResult is the outcome of one circuit (config, seed) unit.
type CircuitSeedResult = eval.CircuitSeedResult

// NetlistChannelBuilder realizes one instance's delay behaviour when a
// netlist is elaborated into the event-driven simulator.
type NetlistChannelBuilder = netlist.ChannelBuilder

// Model names of the Fig. 7 legend, as used in result maps and by
// WireNetlistModel.
const (
	ModelInertial = gate.ModelInertial
	ModelExp      = gate.ModelExp
	ModelHM       = gate.ModelHM
	ModelHMNoDMin = gate.ModelHMNoDMin
)

// ModelNames lists the evaluated delay models in presentation order.
func ModelNames() []string { return append([]string(nil), gate.ModelNames...) }

// ParseNetlist decodes and validates the JSON netlist format of
// `hybridlab circuit -netlist`.
func ParseNetlist(r io.Reader) (*Netlist, error) { return netlist.Parse(r) }

// BuiltinNetlist returns a shipped example circuit ("nor-invchain",
// "c17") by name.
func BuiltinNetlist(name string) (*Netlist, error) { return netlist.Builtin(name) }

// BuiltinNetlists lists the shipped example circuits.
func BuiltinNetlists() []string { return netlist.BuiltinNames() }

// NewCircuitBench flattens a netlist into a composed analog bench.
func NewCircuitBench(nl *Netlist, p BenchParams) (*CircuitBench, error) {
	return netlist.NewBench(nl, p)
}

// BuildNetlistModels measures and parametrizes every distinct gate a
// netlist uses at the given operating point (expDMin is the exp
// channel's empirical pure delay, paper: 20 ps).
func BuildNetlistModels(nl *Netlist, p BenchParams, expDMin float64) (NetlistModels, error) {
	return netlist.BuildModelSet(nl, p, expDMin)
}

// ElaborateNetlist builds a netlist into the event-driven simulator:
// one net per named net (primary inputs initialized from initial) and
// one wire call per instance in topological order.
func ElaborateNetlist(nl *Netlist, sim *Simulator, initial map[string]bool, wire NetlistChannelBuilder) (map[string]*Net, error) {
	return netlist.Elaborate(nl, sim, initial, wire)
}

// WireNetlistModel returns the standard per-gate channel policy
// realizing one named delay model (ModelInertial, ModelExp, ModelHM,
// ModelHMNoDMin) from a model set.
func WireNetlistModel(ms NetlistModels, model string) NetlistChannelBuilder {
	return netlist.WireModel(ms, model)
}

// Scenario-sweep API: fan whole grids of operating points (gate ×
// supply scaling × output load × stimulus configuration × seeds)
// through the parallel evaluation engine and aggregate per-scenario
// accuracy, cache and timing statistics into a deterministic report.

// SweepSpec is the declarative scenario grid: the cross product of the
// gate, VDD-scale, load-scale and stimulus axes over a seed list.
type SweepSpec = sweep.Spec

// SweepStimulus is one point on a sweep's stimulus axis.
type SweepStimulus = sweep.Stimulus

// StimulusMode selects how generated transitions distribute over the
// gate inputs (§VI).
type StimulusMode = gen.Mode

// The two §VI stimulus flavours: LOCAL gives every input its own gap
// sequence (stressing the MIS regime), GLOBAL assigns one global gap
// sequence to random inputs (stressing the SIS regime).
const (
	StimulusLocal  = gen.Local
	StimulusGlobal = gen.Global
)

// SweepScenario is one expanded grid point.
type SweepScenario = sweep.Scenario

// SweepReport is a sweep's outcome: per-scenario rows in grid order
// with JSON (WriteJSON) and CSV (WriteCSV) encoders.
type SweepReport = sweep.Report

// SweepScenarioResult is one sweep report row.
type SweepScenarioResult = sweep.ScenarioResult

// ExpandSweep validates a sweep spec and expands it into scenarios in
// deterministic grid order.
func ExpandSweep(spec SweepSpec) ([]SweepScenario, error) { return sweep.Expand(spec) }

// ParseSweepSpec decodes the JSON grid-file format of `hybridlab sweep
// -grid`.
func ParseSweepSpec(r io.Reader) (SweepSpec, error) { return sweep.ParseSpec(r) }

// ApplyGate runs input traces offline through the generalized
// switch-level hybrid channel of a SwitchGate — the n-input counterpart
// of ApplyNOR.
func ApplyGate(g SwitchGate, inputs []Trace, until, isolatedFill float64) (Trace, error) {
	return hybrid.ApplyGate(g, inputs, until, isolatedFill)
}

// ApplyNOR runs two digital input traces through the hybrid NOR channel
// and returns the output trace.
func ApplyNOR(p ModelParams, a, b Trace, until, vn0 float64) (Trace, error) {
	return hybrid.ApplyNOR(p, a, b, until, vn0)
}

// PaperConfigs returns the four waveform configurations of Fig. 7.
func PaperConfigs() []TraceConfig { return gen.PaperConfigs() }

// GenerateTraces produces the random input traces of a configuration.
func GenerateTraces(cfg TraceConfig, seed int64) ([]Trace, error) { return gen.Traces(cfg, seed) }

// DeviationArea is the paper's accuracy metric: total disagreement time
// between two digital traces on [t0, t1].
func DeviationArea(a, b Trace, t0, t1 float64) float64 { return trace.DeviationArea(a, b, t0, t1) }

// NANDParams is the hybrid model of the dual 2-input NAND gate.
type NANDParams = hybrid.NANDParams

// NANDFromDual builds the NAND model dual to a NOR parametrization.
func NANDFromDual(p ModelParams) NANDParams { return hybrid.NANDFromDual(p) }

// ApplyNAND runs two digital input traces through the hybrid NAND
// channel.
func ApplyNAND(n NANDParams, a, b Trace, until, vm0 float64) (Trace, error) {
	return hybrid.ApplyNAND(n, a, b, until, vm0)
}

// SwitchGate is the generalized switch-level RC gate model with any
// number of inputs and internal nodes (n-dimensional modes).
type SwitchGate = hybrid.SwitchGate

// NOR3Params parameterises the 3-input NOR extension.
type NOR3Params = hybrid.NOR3Params

// NOR3FromNOR2 extrapolates a 3-input NOR model from a fitted 2-input
// parametrization.
func NOR3FromNOR2(p ModelParams) NOR3Params { return hybrid.NOR3FromNOR2(p) }

// DelayFunc is a single-history delay function pair delta_up/down(T).
type DelayFunc = dtsim.DelayFunc

// Circuit-composition API (the Involution Tool substitute): build
// netlists of zero-time gates and delay channels and simulate them
// event-driven.

// Simulator is the event-driven digital timing simulator.
type Simulator = dtsim.Simulator

// Net is a named boolean signal in a simulated circuit.
type Net = dtsim.Net

// Gate is a zero-time boolean function between nets.
type Gate = dtsim.Gate

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator { return dtsim.NewSimulator() }

// NewNet returns a net with the given initial value.
func NewNet(name string, initial bool) *Net { return dtsim.NewNet(name, initial) }

// NewGate wires a zero-time boolean function from input nets to an
// output net.
func NewGate(name string, fn func([]bool) bool, inputs []*Net, out *Net) (*Gate, error) {
	return dtsim.NewGate(name, fn, inputs, out)
}

// NewChannel wires a single-input delay channel between two nets with
// the given cancellation policy.
func NewChannel(sim *Simulator, name string, in, out *Net, df DelayFunc, policy ChannelPolicy) *dtsim.Channel {
	return dtsim.NewChannelWithPolicy(sim, name, in, out, df, policy)
}

// NewNORChannel wires the paper's 2-input hybrid NOR channel between two
// input nets and an output net.
func NewNORChannel(sim *Simulator, p ModelParams, a, b, out *Net, vn0 float64) (*hybrid.Channel, error) {
	return hybrid.NewChannel(sim, p, a, b, out, vn0)
}

// Drive schedules a trace's transitions onto a net.
func Drive(sim *Simulator, n *Net, tr Trace) error { return dtsim.Drive(sim, n, tr) }

// InverterChain builds a chain of inverters, each followed by a channel
// created by mkChannel, and returns the final output net.
func InverterChain(sim *Simulator, in *Net, stages int, mkChannel func(i int, from, to *Net)) (*Net, error) {
	return dtsim.InverterChain(sim, in, stages, mkChannel)
}

// Common zero-time gate functions.
var (
	FnInv   = dtsim.FnInv
	FnBuf   = dtsim.FnBuf
	FnNOR2  = dtsim.FnNOR2
	FnNAND2 = dtsim.FnNAND2
	FnAND2  = dtsim.FnAND2
	FnOR2   = dtsim.FnOR2
	FnXOR2  = dtsim.FnXOR2
)

// ChannelPolicy selects a channel's pulse-cancellation semantics.
type ChannelPolicy = dtsim.Policy

// The available cancellation policies.
const (
	PolicyInvolution = dtsim.PolicyInvolution
	PolicyInertial   = dtsim.PolicyInertial
)

// ApplyDelay transforms a digital trace through a single-input delay
// channel with the given cancellation policy.
func ApplyDelay(in Trace, df DelayFunc, policy ChannelPolicy) Trace {
	return dtsim.ApplyDelayWithPolicy(in, df, policy)
}

// NOR2Trace returns the zero-delay NOR of two traces.
func NOR2Trace(a, b Trace) Trace { return trace.NOR2(a, b) }

// NewTrace builds a digital trace from an initial value and a sorted
// sequence of transition times (each transition toggles the value).
func NewTrace(initial bool, times ...float64) Trace {
	ev := make([]trace.Event, 0, len(times))
	v := initial
	for _, t := range times {
		v = !v
		ev = append(ev, trace.Event{Time: t, Value: v})
	}
	return trace.New(initial, ev)
}

// Ps converts picoseconds to seconds; ToPs converts seconds to
// picoseconds.
func Ps(v float64) float64   { return waveform.Ps(v) }
func ToPs(v float64) float64 { return waveform.ToPs(v) }
