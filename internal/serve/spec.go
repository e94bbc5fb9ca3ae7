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
	"hybriddelay/internal/waveform"
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

// maxSeedCount bounds a job's seed_count (and a sweep spec's): the
// generated seed list is allocated up front, so an unbounded count from
// the wire could exhaust memory before any work starts.
const maxSeedCount = 1 << 12

// seedList resolves the explicit or generated seed list.
func (js *JobSpec) seedList() []int64 {
	if len(js.Seeds) > 0 {
		return append([]int64(nil), js.Seeds...)
	}
	n := js.SeedCount
	if n <= 0 {
		n = 1
	}
	base := js.BaseSeed
	if base == 0 {
		base = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// configs derives one generator configuration per stimulus for the
// given input count, applying the same defaults as the sweep grid.
func (js *JobSpec) configs(inputs int) ([]gen.Config, error) {
	if len(js.Stimuli) == 0 {
		return nil, fmt.Errorf("serve: %s job needs at least one stimulus", js.Kind)
	}
	out := make([]gen.Config, 0, len(js.Stimuli))
	for i, st := range js.Stimuli {
		if st.Mu <= 0 || st.Sigma < 0 {
			return nil, fmt.Errorf("serve: stimulus %d: invalid gap distribution mu=%g sigma=%g", i, st.Mu, st.Sigma)
		}
		if st.Transitions < 1 {
			return nil, fmt.Errorf("serve: stimulus %d: need at least one transition", i)
		}
		if st.Mode != gen.Local && st.Mode != gen.Global {
			return nil, fmt.Errorf("serve: stimulus %d: unknown mode %d", i, int(st.Mode))
		}
		if st.Start <= 0 {
			st.Start = 200 * waveform.Pico
		}
		out = append(out, gen.Config{
			Mu:          st.Mu,
			Sigma:       st.Sigma,
			Mode:        st.Mode,
			Inputs:      inputs,
			Transitions: st.Transitions,
			Start:       st.Start,
			MinGap:      st.MinGap,
		})
	}
	return out, nil
}

// Job validates the spec and converts it into the session.Job the
// server submits. The returned job carries no Progress callback; the
// server attaches its own event publisher.
func (js *JobSpec) Job() (session.Job, error) {
	if js.SeedCount > maxSeedCount || (js.Sweep != nil && js.Sweep.SeedCount > maxSeedCount) {
		return nil, fmt.Errorf("serve: seed_count exceeds the limit of %d", maxSeedCount)
	}
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
			Seeds:   js.seedList(),
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
			Seeds:   js.seedList(),
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
