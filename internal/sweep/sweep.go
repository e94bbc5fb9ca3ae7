// Package sweep declares the scenario grid of the accuracy study of
// paper §VI (Fig. 7) and reports on it: a declarative grid of scenario
// axes — gate topology (single gates and whole netlist circuits),
// supply-voltage scaling, output load scaling, stimulus configuration
// and seed count — expands into individual scenarios (Expand), and the
// evaluated units fold into a per-scenario Report (NewReport) with
// deterministic JSON and CSV encodings. Circuit rows sum their per-net
// scores into the report row.
//
// The package plans and runs nothing itself: a session SweepJob
// prepares every distinct operating point once, puts one evaluation
// block per scenario on one eval.Run fan-out behind the session's
// golden cache, and hands the results to NewReport. Scenario bench
// parameters carry the scaled supply and load, so distinct operating
// points never share a cache key. Rows are merged in grid order: for a
// fixed spec the Report is bit-identical regardless of the worker
// count.
package sweep

import (
	"fmt"
	"math"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// Stimulus is one point on the stimulus axis: a waveform-generation
// configuration without the input count (which each gate supplies from
// its arity). Times are seconds, as everywhere in the repository.
type Stimulus struct {
	Mode        gen.Mode `json:"mode"`              // LOCAL or GLOBAL
	Mu          float64  `json:"mu"`                // mean transition gap [s]
	Sigma       float64  `json:"sigma"`             // gap standard deviation [s]
	Transitions int      `json:"transitions"`       // transitions per run
	Start       float64  `json:"start,omitempty"`   // first-transition time [s]; default 200 ps
	MinGap      float64  `json:"min_gap,omitempty"` // lower gap clamp [s]; default 1 ps
}

// Name renders the paper-style label, e.g. "100/50 - LOCAL".
func (s Stimulus) Name() string {
	return fmt.Sprintf("%.0f/%.0f - %s", s.Mu/waveform.Pico, s.Sigma/waveform.Pico, s.Mode)
}

// Config validates the stimulus and derives its generator configuration
// for a gate or circuit with the given number of inputs, applying the
// 200 ps default start.
func (s Stimulus) Config(inputs int) (gen.Config, error) {
	if !(s.Mu > 0) || !(s.Sigma >= 0) {
		return gen.Config{}, fmt.Errorf("invalid gap distribution mu=%g sigma=%g", s.Mu, s.Sigma)
	}
	if s.Transitions < 1 {
		return gen.Config{}, fmt.Errorf("need at least one transition")
	}
	if s.Mode != gen.Local && s.Mode != gen.Global {
		return gen.Config{}, fmt.Errorf("unknown mode %d", int(s.Mode))
	}
	start := s.Start
	if start <= 0 {
		start = 200 * waveform.Pico
	}
	return gen.Config{
		Mu:          s.Mu,
		Sigma:       s.Sigma,
		Mode:        s.Mode,
		Inputs:      inputs,
		Transitions: s.Transitions,
		Start:       start,
		MinGap:      s.MinGap,
	}, nil
}

// Spec is the declarative scenario grid. The expanded grid is the cross
// product Gates × VDDScale × LoadScale × Stimuli, each evaluated over
// the same seed list; empty scale axes default to {1} and an empty seed
// list defaults to SeedCount consecutive seeds from BaseSeed.
//
// A Spec round-trips through JSON (the `hybridlab sweep -grid` file
// format); the bench base parameters are programmatic only and default
// to the calibrated testbench.
type Spec struct {
	// Gates lists registry names ("nor2", "nand2", "nor3"). Empty
	// defaults to the default gate unless Circuits are given.
	Gates []string `json:"gates,omitempty"`

	// Circuits lists multi-gate netlists swept as circuit-level
	// scenarios alongside the single gates: each circuit crosses the
	// same VDD/load/stimulus axes (the stimulus drives the circuit's
	// primary inputs), is scored through the composed analog golden,
	// and reports the deviation areas summed over its recorded nets
	// (per-net detail is available through a session CircuitJob). Every
	// circuit needs a unique name; its report rows appear under
	// "circuit:<name>".
	Circuits []netlist.Netlist `json:"circuits,omitempty"`

	// VDDScale lists supply-voltage scale factors applied to both VDD
	// and the logic threshold of the base bench supply (the threshold
	// stays at its relative position). Empty defaults to {1}.
	VDDScale []float64 `json:"vdd_scale,omitempty"`

	// LoadScale lists output-load scale factors applied to the bench's
	// output capacitance CO. Empty defaults to {1}.
	LoadScale []float64 `json:"load_scale,omitempty"`

	// Stimuli lists the waveform configurations to cross with the
	// operating points. Required.
	Stimuli []Stimulus `json:"stimuli"`

	// Seeds is the explicit seed list evaluated per scenario. When
	// empty, SeedCount consecutive seeds starting at BaseSeed are used
	// (defaults: 1 seed from base 1).
	Seeds     []int64 `json:"seeds,omitempty"`
	SeedCount int     `json:"seed_count,omitempty"`
	BaseSeed  int64   `json:"base_seed,omitempty"`

	// ExpDMin is the exp channel's empirical pure delay; zero selects
	// the session's default (20 ps, as in the paper).
	ExpDMin float64 `json:"exp_dmin,omitempty"`

	// Bench overrides the base testbench parameters the scale axes are
	// applied to; nil selects nor.DefaultParams().
	Bench *nor.Params `json:"-"`
}

// Scenario is one expanded grid point: a gate — or a whole circuit —
// at one operating point under one stimulus configuration.
type Scenario struct {
	Index     int        // position in grid order
	Gate      string     // registry name, or "circuit:<name>" for circuit rows
	VDDScale  float64    // applied supply scale
	LoadScale float64    // applied output-load scale
	Stimulus  Stimulus   // stimulus-axis point
	Params    nor.Params // fully scaled bench parameters
	Config    gen.Config // derived generator configuration (Inputs = arity)

	// Circuit is the swept netlist for circuit rows, nil for gate rows.
	Circuit *netlist.Netlist
}

// Name renders a compact scenario label for progress and reports.
func (s Scenario) Name() string {
	return fmt.Sprintf("%s vdd=%.2f load=%.2f %s", s.Gate, s.VDDScale, s.LoadScale, s.Stimulus.Name())
}

// SeedList resolves the spec's effective seeds: the explicit Seeds
// list, or SeedCount consecutive seeds from BaseSeed (defaults: one
// seed from base 1).
func (s Spec) SeedList() []int64 {
	if len(s.Seeds) > 0 {
		return append([]int64(nil), s.Seeds...)
	}
	count := s.SeedCount
	if count <= 0 {
		count = 1
	}
	base := s.BaseSeed
	if base == 0 {
		base = 1
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// baseParams resolves the base bench parameters.
func (s Spec) baseParams() nor.Params {
	if s.Bench != nil {
		return *s.Bench
	}
	return nor.DefaultParams()
}

// scaleParams applies one operating point's scale factors to the base
// bench parameters: the supply (VDD and threshold together, keeping the
// discretization point at the same relative level) and the output load.
func scaleParams(base nor.Params, vddScale, loadScale float64) nor.Params {
	p := base
	p.Supply.VDD *= vddScale
	p.Supply.Vth *= vddScale
	p.CO *= loadScale
	return p
}

// Expand validates the spec and expands it into scenarios in grid order
// (gate-major, then VDD scale, load scale and stimulus; circuit rows
// follow the gate rows in the same axis order).
func Expand(spec Spec) ([]Scenario, error) {
	gates := spec.Gates
	if len(gates) == 0 && len(spec.Circuits) == 0 {
		gates = []string{gate.Default().Name()}
	}
	seenCirc := map[string]bool{}
	for i := range spec.Circuits {
		nl := &spec.Circuits[i]
		if nl.Name == "" {
			return nil, fmt.Errorf("sweep: circuit %d needs a name", i)
		}
		if seenCirc[nl.Name] {
			return nil, fmt.Errorf("sweep: circuit %q listed twice", nl.Name)
		}
		seenCirc[nl.Name] = true
		if err := nl.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	arities := make(map[string]int, len(gates))
	seen := map[string]bool{}
	for _, name := range gates {
		g, err := gate.Find(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		// By resolved name: "" and the default gate's name are one gate.
		if seen[g.Name()] {
			return nil, fmt.Errorf("sweep: gate %q listed twice", g.Name())
		}
		seen[g.Name()] = true
		arities[name] = g.Arity()
	}
	vdds := spec.VDDScale
	if len(vdds) == 0 {
		vdds = []float64{1}
	}
	loads := spec.LoadScale
	if len(loads) == 0 {
		loads = []float64{1}
	}
	// Duplicate axis values would expand into scenarios with identical
	// golden-cache keys; their singleflighted lookups would then be
	// attributed to whichever scenario ran first, making the per-scenario
	// hit/miss columns depend on scheduling — so duplicates are rejected
	// on every axis, not just gates.
	seenVDD := map[float64]bool{}
	for _, v := range vdds {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sweep: invalid VDD scale %g", v)
		}
		if seenVDD[v] {
			return nil, fmt.Errorf("sweep: VDD scale %g listed twice", v)
		}
		seenVDD[v] = true
	}
	seenLoad := map[float64]bool{}
	for _, l := range loads {
		if !(l > 0) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("sweep: invalid load scale %g", l)
		}
		if seenLoad[l] {
			return nil, fmt.Errorf("sweep: load scale %g listed twice", l)
		}
		seenLoad[l] = true
	}
	if len(spec.Stimuli) == 0 {
		return nil, fmt.Errorf("sweep: no stimuli supplied")
	}
	seenStim := map[Stimulus]bool{}
	cfgs := make([]gen.Config, len(spec.Stimuli)) // Inputs set per gate below
	for i, st := range spec.Stimuli {
		cfg, err := st.Config(0)
		if err != nil {
			return nil, fmt.Errorf("sweep: stimulus %d: %w", i, err)
		}
		if seenStim[st] {
			return nil, fmt.Errorf("sweep: stimulus %d (%s, %d transitions) listed twice", i, st.Name(), st.Transitions)
		}
		seenStim[st] = true
		cfgs[i] = cfg
	}
	seenSeed := map[int64]bool{}
	for _, s := range spec.SeedList() {
		if seenSeed[s] {
			return nil, fmt.Errorf("sweep: seed %d listed twice", s)
		}
		seenSeed[s] = true
	}
	base := spec.baseParams()
	out := make([]Scenario, 0, (len(gates)+len(spec.Circuits))*len(vdds)*len(loads)*len(spec.Stimuli))
	add := func(label string, inputs int, circuit *netlist.Netlist) {
		for _, vdd := range vdds {
			for _, load := range loads {
				for k, st := range spec.Stimuli {
					cfg := cfgs[k]
					cfg.Inputs = inputs
					out = append(out, Scenario{
						Index:     len(out),
						Gate:      label,
						VDDScale:  vdd,
						LoadScale: load,
						Stimulus:  st,
						Params:    scaleParams(base, vdd, load),
						Circuit:   circuit,
						Config:    cfg,
					})
				}
			}
		}
	}
	for _, name := range gates {
		add(name, arities[name], nil)
	}
	for i := range spec.Circuits {
		nl := &spec.Circuits[i]
		add("circuit:"+nl.Name, len(nl.Inputs), nl)
	}
	return out, nil
}

// circuitToSeedResult folds a per-net circuit unit result into the flat
// per-model shape the sweep report aggregates: areas and golden events
// summed over the recorded nets, in net and model order (deterministic
// floating-point sums).
func circuitToSeedResult(cr eval.CircuitSeedResult) eval.SeedResult {
	out := eval.SeedResult{Config: cr.Config, Seed: cr.Seed, Area: map[string]float64{}}
	for _, net := range cr.Nets {
		out.GoldenEv += cr.GoldenEv[net]
		for _, model := range eval.ModelNames {
			out.Area[model] += cr.Area[net][model]
		}
	}
	return out
}

// NewReport folds an evaluated grid into its report: scenarios from
// Expand, the seeds every scenario ran, the gate and circuit unit
// results of eval.Run over one block per scenario in grid order, and
// each scenario's tally. Per-scenario results are merged in seed order
// and reported in grid order, so the report is independent of the
// worker count. The caller fills in WallSeconds.
func NewReport(scenarios []Scenario, seeds []int64, gates []eval.SeedResult, circuits []eval.CircuitSeedResult, tallies []eval.Tally) *Report {
	rep := &Report{
		Seeds:      seeds,
		ModelNames: append([]string(nil), eval.ModelNames...),
		Scenarios:  make([]ScenarioResult, len(scenarios)),
		TotalUnits: len(scenarios) * len(seeds),
	}
	for si, sc := range scenarios {
		parts := gates[si*len(seeds) : (si+1)*len(seeds)]
		if sc.Circuit != nil {
			for k := range parts {
				parts[k] = circuitToSeedResult(circuits[si*len(seeds)+k])
			}
		}
		rep.Scenarios[si] = buildScenarioResult(sc, eval.MergeSeedResults(sc.Config, parts), parts, &tallies[si])
		rep.Cache.Hits += rep.Scenarios[si].CacheHits
		rep.Cache.Misses += rep.Scenarios[si].CacheMisses
	}
	return rep
}

// buildScenarioResult folds one scenario's merged and per-seed results
// into the report row.
func buildScenarioResult(sc Scenario, merged eval.RunResult, parts []eval.SeedResult, t *eval.Tally) ScenarioResult {
	hits, misses := t.Hits.Load(), t.Misses.Load()
	res := ScenarioResult{
		Index:        sc.Index,
		Gate:         sc.Gate,
		VDDScale:     sc.VDDScale,
		LoadScale:    sc.LoadScale,
		Mode:         sc.Stimulus.Mode.String(),
		MuPs:         sc.Stimulus.Mu / waveform.Pico,
		SigmaPs:      sc.Stimulus.Sigma / waveform.Pico,
		Transitions:  sc.Stimulus.Transitions,
		Seeds:        len(parts),
		Normalized:   map[string]Ratio{},
		GoldenEvents: merged.GoldenEv,
		CacheHits:    hits,
		CacheMisses:  misses,
		WallSeconds:  float64(t.Nanos.Load()) / 1e9,
	}
	//hybrid:nondet-ok map-to-map copy with distinct keys; the report JSON/CSV encoders emit models in sorted/declared order
	for name, v := range merged.Normalized {
		res.Normalized[name] = Ratio(v)
	}
	if lookups := hits + misses; lookups > 0 {
		res.HitRate = float64(hits) / float64(lookups)
	}
	// Worst-case seed: the repetition with the largest hybrid-model
	// deviation area (absolute, so a zero inertial baseline cannot make
	// the ranking undefined). Ties keep the earliest seed.
	for i, p := range parts {
		area := p.Area[eval.ModelHM]
		if i == 0 || area > res.WorstSeedArea {
			res.WorstSeed = p.Seed
			res.WorstSeedArea = area
		}
	}
	return res
}
