// Package serve turns a session.Session into a long-lived multi-tenant
// HTTP+JSON service: the shape the paper's characterization flow takes
// inside an Involution-Tool-style pipeline, where one golden engine
// serves many model-evaluation clients. One process owns one Session
// (worker budget, golden-trace cache, parametrization cache, optional
// persistent store); clients submit Gate/Circuit/Sweep jobs, stream
// progress over SSE, cancel mid-flight, and scrape cache/solver
// counters — all through the endpoints documented on Server.
package serve

import (
	"fmt"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

// JobSpec is the wire form of one submitted job — the POST /v1/jobs
// request body. Kind selects the flavour; the other fields follow the
// repository's existing JSON conventions (sweep.Stimulus for waveform
// configurations, netlist.Netlist for circuits, sweep.Spec for grids;
// all times in seconds). Bench parameters are deliberately not part of
// the wire format: every job runs at the server's operating point
// (solver mode included), which is what lets the shared caches serve
// all tenants.
type JobSpec struct {
	// Kind is "gate", "circuit" or "sweep".
	Kind session.Kind `json:"kind"`

	// Gate is the registry name for gate jobs ("nor2", "nand2",
	// "nor3"); empty selects the default gate.
	Gate string `json:"gate,omitempty"`

	// Stimuli lists the waveform configurations. Gate jobs evaluate
	// every stimulus as one result row; circuit jobs take exactly one.
	// The input count is derived from the gate's arity (or the
	// netlist's primary inputs), as in the sweep grid.
	Stimuli []sweep.Stimulus `json:"stimuli,omitempty"`

	// Circuit names a builtin netlist (netlist.BuiltinNames) for
	// circuit jobs; Netlist supplies one inline instead. Exactly one of
	// the two.
	Circuit string           `json:"circuit,omitempty"`
	Netlist *netlist.Netlist `json:"netlist,omitempty"`

	// Sweep is the scenario grid for sweep jobs (the `hybridlab sweep
	// -grid` file format).
	Sweep *sweep.Spec `json:"sweep,omitempty"`

	// Seeds lists explicit repetition seeds for gate and circuit jobs;
	// when empty, SeedCount consecutive seeds from BaseSeed are used
	// (defaults: 1 seed from base 1), matching the sweep semantics.
	Seeds     []int64 `json:"seeds,omitempty"`
	SeedCount int     `json:"seed_count,omitempty"`
	BaseSeed  int64   `json:"base_seed,omitempty"`

	// ExpDMin overrides the exp channel's empirical pure delay [s];
	// 0 selects the paper default (20 ps).
	ExpDMin float64 `json:"exp_dmin,omitempty"`
}

// Wire-input bounds. Every one of these sizes is allocated or expanded
// up front (seed lists, generated traces, flattened netlists, the sweep
// grid), so an unbounded value from the wire could exhaust the process
// before admission; Job refuses a spec past any of them. They sit far
// above the paper's workloads: at most 500 transitions per stimulus,
// four stimuli, and rca16's 144 instances.
const (
	maxSeedCount   = 1 << 12 // a job's or a sweep spec's seeds or seed_count
	maxTransitions = 1 << 14 // transitions per stimulus
	maxStimuli     = 64      // stimuli per job or sweep spec
	maxInstances   = 1024    // instances per inline netlist
	maxSweepUnits  = 1 << 16 // expanded sweep scenarios × seeds
)

// checkBounds refuses a spec past the wire-input bounds, before
// anything is generated from it.
func (js *JobSpec) checkBounds() error {
	if err := checkSeedsStimuli(len(js.Seeds), js.SeedCount, js.Stimuli); err != nil {
		return err
	}
	if err := checkInstances(js.Netlist); err != nil {
		return err
	}
	sp := js.Sweep
	if sp == nil {
		return nil
	}
	if err := checkSeedsStimuli(len(sp.Seeds), sp.SeedCount, sp.Stimuli); err != nil {
		return err
	}
	for i := range sp.Circuits {
		if err := checkInstances(&sp.Circuits[i]); err != nil {
			return err
		}
	}
	// Saturating product of the grid axes, as Expand and SeedList read
	// them (an empty axis expands to one value).
	seeds := len(sp.Seeds)
	if seeds == 0 {
		seeds = sp.SeedCount
	}
	units := 1
	for _, n := range []int{len(sp.Gates) + len(sp.Circuits), len(sp.VDDScale), len(sp.LoadScale), len(sp.Stimuli), seeds} {
		n = max(n, 1)
		if units > maxSweepUnits/n {
			return fmt.Errorf("serve: sweep expands past the limit of %d units", maxSweepUnits)
		}
		units *= n
	}
	return nil
}

// checkSeedsStimuli bounds an explicit seed list, a seed count, a
// stimulus list and each stimulus's length.
func checkSeedsStimuli(seeds, seedCount int, stimuli []sweep.Stimulus) error {
	if seeds > maxSeedCount {
		return fmt.Errorf("serve: %d seeds exceed the limit of %d", seeds, maxSeedCount)
	}
	if seedCount > maxSeedCount {
		return fmt.Errorf("serve: seed_count exceeds the limit of %d", maxSeedCount)
	}
	if len(stimuli) > maxStimuli {
		return fmt.Errorf("serve: %d stimuli exceed the limit of %d", len(stimuli), maxStimuli)
	}
	for i, st := range stimuli {
		if st.Transitions > maxTransitions {
			return fmt.Errorf("serve: stimulus %d: %d transitions exceed the limit of %d", i, st.Transitions, maxTransitions)
		}
	}
	return nil
}

// checkInstances bounds an inline netlist's instance count.
func checkInstances(nl *netlist.Netlist) error {
	if nl != nil && len(nl.Instances) > maxInstances {
		return fmt.Errorf("serve: netlist %q has %d instances, over the limit of %d", nl.Name, len(nl.Instances), maxInstances)
	}
	return nil
}

// configs derives one generator configuration per stimulus for the
// given input count, through the same validation and defaults as the
// sweep grid.
func (js *JobSpec) configs(inputs int) ([]gen.Config, error) {
	if len(js.Stimuli) == 0 {
		return nil, fmt.Errorf("serve: %s job needs at least one stimulus", js.Kind)
	}
	out := make([]gen.Config, len(js.Stimuli))
	for i, st := range js.Stimuli {
		cfg, err := st.Config(inputs)
		if err != nil {
			return nil, fmt.Errorf("serve: stimulus %d: %w", i, err)
		}
		out[i] = cfg
	}
	return out, nil
}

// Job validates the spec and converts it into the session.Job the
// server submits. The returned job carries no Progress callback; the
// server attaches its own event publisher.
func (js *JobSpec) Job() (session.Job, error) {
	if err := js.checkBounds(); err != nil {
		return nil, err
	}
	seeds := sweep.Spec{Seeds: js.Seeds, SeedCount: js.SeedCount, BaseSeed: js.BaseSeed}.SeedList()
	switch js.Kind {
	case session.KindGate:
		if js.Circuit != "" || js.Netlist != nil || js.Sweep != nil {
			return nil, fmt.Errorf("serve: gate job carries non-gate fields")
		}
		g, err := gate.Find(js.Gate)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		cfgs, err := js.configs(g.Arity())
		if err != nil {
			return nil, err
		}
		return session.GateJob{
			Gate:    g.Name(),
			Configs: cfgs,
			Seeds:   seeds,
			ExpDMin: js.ExpDMin,
		}, nil
	case session.KindCircuit:
		if js.Gate != "" || js.Sweep != nil {
			return nil, fmt.Errorf("serve: circuit job carries non-circuit fields")
		}
		var nl *netlist.Netlist
		switch {
		case js.Netlist != nil && js.Circuit != "":
			return nil, fmt.Errorf("serve: circuit job sets both circuit and netlist")
		case js.Netlist != nil:
			nl = js.Netlist
		case js.Circuit != "":
			var err error
			if nl, err = netlist.Builtin(js.Circuit); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
		default:
			return nil, fmt.Errorf("serve: circuit job needs a circuit name or an inline netlist")
		}
		if err := nl.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if len(js.Stimuli) != 1 {
			return nil, fmt.Errorf("serve: circuit job takes exactly one stimulus, got %d", len(js.Stimuli))
		}
		cfgs, err := js.configs(len(nl.Inputs))
		if err != nil {
			return nil, err
		}
		return session.CircuitJob{
			Netlist: nl,
			Config:  cfgs[0],
			Seeds:   seeds,
			ExpDMin: js.ExpDMin,
		}, nil
	case session.KindSweep:
		if js.Gate != "" || js.Circuit != "" || js.Netlist != nil || len(js.Stimuli) != 0 {
			return nil, fmt.Errorf("serve: sweep job carries non-sweep fields")
		}
		if js.Sweep == nil {
			return nil, fmt.Errorf("serve: sweep job needs a sweep spec")
		}
		if _, err := sweep.Expand(*js.Sweep); err != nil {
			return nil, err
		}
		return session.SweepJob{Spec: *js.Sweep}, nil
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q (want gate, circuit or sweep)", js.Kind)
	}
}
