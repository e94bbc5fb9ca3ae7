package session

import (
	"context"
	"fmt"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/pool"
	"hybriddelay/internal/waveform"
)

// DefaultExpDMin is the exp channel's empirical pure delay (paper:
// 20 ps), which a job or sweep spec selects with zero.
const DefaultExpDMin = 20 * waveform.Pico

// target is one evaluation block for plan: a gate (Netlist nil) or a
// validated netlist at one operating point under one configuration.
// Label, when non-empty, prefixes the error of a failed unit and that
// of a failed operating point the target is the first to use; Tally,
// when non-nil, counts the block's golden lookups and unit time.
type target struct {
	Gate    string // registry name ("" selects the default gate); unread for a netlist
	Netlist *netlist.Netlist
	Params  nor.Params
	Config  gen.Config
	Label   string
	Tally   *eval.Tally
}

// plan turns targets into evaluation blocks for eval.Run, in target
// order. It prepares each distinct (gate, bench parameters) operating
// point once through the session's parametrization cache on its
// workers, calling prepared (when non-nil) after each; a netlist
// target uses the points of its member gates, so circuits and gates at
// one operating point share them. Netlist targets at equal (netlist,
// parameters) share one composed bench pool, returned at each target's
// index (nil for a gate target). A non-nil cache sits in front of every
// golden source; nil evaluates without golden memoization. expDMin
// zero selects DefaultExpDMin.
//
// On the first failed preparation no new point is started and the
// error of the earliest failed point is returned; once ctx is done,
// ctx.Err() is.
func (s *Session) plan(ctx context.Context, targets []target, expDMin float64, cache *eval.GoldenCache,
	prepared func(completed, total int, err error)) ([]eval.Block, []*eval.CircuitBenchSource, error) {
	if !(expDMin > 0) {
		expDMin = DefaultExpDMin
	}
	type pointKey struct {
		gate   string
		params nor.Params
	}
	var (
		order  []pointKey // distinct points in first-use order
		gates  []gate.Gate
		labels []string // the Label of each point's first target
		index  = map[pointKey]int{}
		uses   = make([][]int, len(targets)) // the points each target evaluates with
	)
	for i, t := range targets {
		names := []string{t.Gate}
		if t.Netlist != nil {
			names = nil
			for _, inst := range t.Netlist.Instances {
				names = append(names, inst.Gate)
			}
		}
		for _, name := range names {
			g, err := gate.Find(name)
			if err != nil {
				return nil, nil, fmt.Errorf("session: %w", err)
			}
			k := pointKey{g.Name(), t.Params}
			at, ok := index[k]
			if !ok {
				at = len(order)
				index[k] = at
				order, gates, labels = append(order, k), append(gates, g), append(labels, t.Label)
			}
			uses[i] = append(uses[i], at)
		}
	}

	ops := make([]*eval.OperatingPoint, len(order))
	errs := make([]error, len(order))
	var onDone func(i, completed int, err error)
	if prepared != nil {
		onDone = func(_, completed int, err error) { prepared(completed, len(order), err) }
	}
	ctxErr := pool.RunContext(ctx, len(order), s.workers, func(i int) error {
		ops[i], errs[i] = s.params.OperatingPoint(ctx, gates[i], order[i].params, expDMin)
		return errs[i]
	}, onDone)
	for i, err := range errs {
		// Only collapse context-flavoured errors into this run's own
		// cancellation; a live run must surface them as real failures
		// (an unprepared point would otherwise flow into evaluation).
		if err != nil && !(ctxErr != nil && eval.IsContextErr(err)) {
			k := order[i]
			err = fmt.Errorf("operating point %s VDD=%g CO=%g: %w", k.gate, k.params.Supply.VDD, k.params.CO, err)
			if labels[i] != "" {
				err = fmt.Errorf("%s: %w", labels[i], err)
			}
			return nil, nil, err
		}
	}
	if ctxErr != nil {
		return nil, nil, ctxErr
	}

	type circuitKey struct {
		nl     *netlist.Netlist
		params nor.Params
	}
	benches := map[circuitKey]*eval.CircuitBenchSource{}
	blocks := make([]eval.Block, len(targets))
	pools := make([]*eval.CircuitBenchSource, len(targets))
	for i, t := range targets {
		b := eval.Block{Config: t.Config, Label: t.Label, Tally: t.Tally}
		if t.Netlist == nil {
			op := ops[uses[i][0]]
			b.Models, b.Golden = op.Models, op.Golden
			if cache != nil {
				b.Golden = eval.CachedSource{Gate: op.Key.Gate, Bench: t.Params, Cache: cache, Src: op.Golden, Tally: t.Tally}
			}
			blocks[i] = b
			continue
		}
		ck := circuitKey{t.Netlist, t.Params}
		if benches[ck] == nil {
			bench, err := netlist.NewBench(t.Netlist, t.Params)
			if err != nil {
				return nil, nil, fmt.Errorf("session: circuit %q: %w", t.Netlist.Name, err)
			}
			benches[ck] = eval.NewCircuitBenchSource(bench)
		}
		pools[i] = benches[ck]
		b.Netlist, b.Set, b.Circuit = t.Netlist, netlist.ModelSet{}, pools[i]
		for _, at := range uses[i] {
			b.Set[ops[at].Key.Gate] = ops[at].Models
		}
		if cache != nil {
			b.Circuit = eval.CachedCircuitSource{Key: t.Netlist.ContentKey(), Bench: t.Params, Cache: cache, Src: pools[i], Tally: t.Tally}
		}
		blocks[i] = b
	}
	return blocks, pools, nil
}
