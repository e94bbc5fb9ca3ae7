package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/pool"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// SeedResult is the outcome of one evaluation unit: one waveform
// configuration run once with one seed, scored against the golden
// reference.
type SeedResult struct {
	Config   gen.Config
	Seed     int64
	Area     map[string]float64 // absolute deviation area per model [s]
	GoldenEv int                // golden output transitions observed
}

// EvaluateSeedContext runs the pipeline for a single (config, seed)
// unit: generate the random inputs, obtain the digitized golden trace
// from the source, run every delay model and measure the deviation
// areas. ctx is checked between the unit's stages (trace generation,
// the golden run, the model runs), so a cancelled evaluation stops
// before its next analog transient instead of running the unit to
// completion. The configuration's input count must match the model
// gate's arity.
func EvaluateSeedContext(ctx context.Context, golden GoldenSource, m Models, cfg gen.Config, seed int64) (SeedResult, error) {
	res := SeedResult{Config: cfg, Seed: seed, Area: map[string]float64{}}
	if m.Gate == nil {
		return res, fmt.Errorf("eval: Models.Gate is unset (build models through a registered gate)")
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	inputs, err := gen.Traces(cfg, seed)
	if err != nil {
		return res, err
	}
	if len(inputs) != m.Gate.Arity() {
		return res, fmt.Errorf("eval: gate %s needs %d inputs, config has %d",
			m.Gate.Name(), m.Gate.Arity(), len(inputs))
	}
	until := gen.Horizon(inputs, 600*waveform.Pico)
	g, err := golden.Golden(GoldenRequest{Config: cfg, Seed: seed, Inputs: inputs, Until: until})
	if err != nil {
		return res, fmt.Errorf("eval: seed %d: %w", seed, err)
	}
	res.GoldenEv = g.NumEvents()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	models, err := RunModels(m, inputs, until)
	if err != nil {
		return res, fmt.Errorf("eval: seed %d: %w", seed, err)
	}
	//hybrid:nondet-ok each model writes its own Area[name]; distinct keys, so visit order cannot change the result
	for name, tr := range models {
		res.Area[name] = trace.DeviationArea(g, tr, 0, until)
	}
	return res, nil
}

// MergeSeedResults folds per-seed results into a RunResult. Results are
// summed in the given order, so for a fixed seed order the merged
// floating-point sums are identical no matter how many workers produced
// the parts — this is what makes the fan-out deterministic.
func MergeSeedResults(cfg gen.Config, parts []SeedResult) RunResult {
	res := RunResult{
		Config: cfg,
		Seeds:  make([]int64, 0, len(parts)),
		Area:   map[string]float64{},
	}
	for _, p := range parts {
		res.Seeds = append(res.Seeds, p.Seed)
		res.GoldenEv += p.GoldenEv
		//hybrid:nondet-ok one visit per distinct model key per part; parts fold in fixed slice order, so the float sums are reproducible
		for name, a := range p.Area {
			res.Area[name] += a
		}
	}
	res.Normalized = normalizeBy(res.Area)
	return res
}

// Progress describes one completed evaluation unit: the index of its
// Block and its seed. Completed counts all units finished so far
// (including this one) out of Total; Err is the unit's error, if any.
type Progress struct {
	Block     int
	Seed      int64
	Completed int
	Total     int
	Err       error
}

// Options configures Run.
type Options struct {
	// Workers bounds the worker pool. Zero or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int

	// Progress, when non-nil, is invoked after each completed unit.
	// Calls are serialized; units may complete in any order.
	Progress func(Progress)
}

// Block is one waveform configuration evaluated once per seed against
// one golden source: a single gate (Golden and Models) or, when Netlist
// is set, a circuit (Circuit, Netlist and Set).
type Block struct {
	Config gen.Config

	Golden GoldenSource
	Models Models

	Circuit CircuitGoldenSource
	Netlist *netlist.Netlist
	Set     netlist.ModelSet

	// Label, when non-empty, prefixes the error of a failed unit.
	Label string
	// Tally, when non-nil, accumulates the wall time of the block's
	// units in Nanos.
	Tally *Tally
}

// Tally counts one group of units' golden lookups and evaluation time,
// for per-group report columns (the sweep's per-scenario cache and time
// columns): CachedSource and CachedCircuitSource count Hits and Misses,
// Run adds each unit's wall time to Nanos.
type Tally struct {
	Hits, Misses, Nanos atomic.Int64
}

// count records one lookup outcome; errors count as neither.
func (t *Tally) count(hit bool, err error) {
	switch {
	case t == nil || err != nil:
	case hit:
		t.Hits.Add(1)
	default:
		t.Misses.Add(1)
	}
}

// lease pins one bench of the block's source for a run of its units.
// A failed lease falls back to the shared source: if the bench
// constructor is broken, the unit's own golden run reproduces the error
// with full context.
func (b Block) lease() (Block, func()) {
	if l, ok := b.Golden.(Leaser); ok {
		if src, release, err := l.Lease(); err == nil {
			b.Golden = src
			return b, release
		}
	}
	if l, ok := b.Circuit.(CircuitLeaser); ok {
		if src, release, err := l.LeaseCircuit(); err == nil {
			b.Circuit = src
			return b, release
		}
	}
	return b, func() {}
}

// Run evaluates every block over the given seeds on a bounded worker
// pool and returns the per-unit results block-major, seed-minor: unit
// i is block i/len(seeds) with seed seeds[i%len(seeds)], its result in
// gates[i] for a gate block and in circuits[i] for a circuit block
// (circuits is nil when no block is a circuit). Once ctx is done no new
// units are claimed, in-flight units stop at their next stage boundary,
// and ctx.Err() is returned; otherwise the error of the earliest failed
// unit is returned.
func Run(ctx context.Context, blocks []Block, seeds []int64, opt *Options) (gates []SeedResult, circuits []CircuitSeedResult, err error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return fanOut(ctx, blocks, seeds, o.Workers, batchSize(len(blocks)*len(seeds), o.Workers), o.Progress)
}

// batchSize picks roughly two claims per worker, so the tail stays
// balanced.
func batchSize(total, workers int) int {
	return max((total+2*workers-1)/(2*workers), 1)
}

// fanOut is the one evaluation schedule: workers claim batches of batch
// consecutive units, lease one bench per run of same-block units within
// a batch, and check ctx before each unit. Results and errors land in
// index-addressed slots, so neither the worker count nor the batch size
// can change what is merged or which error wins.
func fanOut(ctx context.Context, blocks []Block, seeds []int64, workers, batch int, progress func(Progress)) ([]SeedResult, []CircuitSeedResult, error) {
	if len(seeds) == 0 {
		return nil, nil, fmt.Errorf("eval: no seeds supplied")
	}
	if len(blocks) == 0 {
		return nil, nil, fmt.Errorf("eval: no configurations supplied")
	}
	total := len(blocks) * len(seeds)
	gates := make([]SeedResult, total)
	var circuits []CircuitSeedResult
	for _, b := range blocks {
		if b.Netlist != nil {
			circuits = make([]CircuitSeedResult, total)
			break
		}
	}
	errs := make([]error, total)

	var progressMu sync.Mutex
	completed := 0
	unitDone := func(i int, err error) {
		if progress == nil {
			return
		}
		progressMu.Lock()
		completed++
		progress(Progress{Block: i / len(seeds), Seed: seeds[i%len(seeds)], Completed: completed, Total: total, Err: err})
		progressMu.Unlock()
	}
	ctxErr := pool.RunContext(ctx, (total+batch-1)/batch, workers, func(bi int) error {
		leasedBlock, b, release := -1, Block{}, func() {}
		defer func() { release() }()
		for i := bi * batch; i < min((bi+1)*batch, total); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if bk := i / len(seeds); bk != leasedBlock {
				release()
				leasedBlock = bk
				b, release = blocks[bk].lease()
			}
			start := time.Now()
			if b.Netlist != nil {
				circuits[i], errs[i] = EvaluateCircuitSeedContext(ctx, b.Circuit, b.Netlist, b.Set, b.Config, seeds[i%len(seeds)])
			} else {
				gates[i], errs[i] = EvaluateSeedContext(ctx, b.Golden, b.Models, b.Config, seeds[i%len(seeds)])
			}
			if b.Tally != nil {
				b.Tally.Nanos.Add(time.Since(start).Nanoseconds())
			}
			unitDone(i, errs[i])
			if errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	}, nil)
	for i, err := range errs {
		// Context-flavoured unit errors are only collapsed into the
		// run's own ctx.Err(); if this run is live they are real unit
		// failures and must surface.
		if err != nil && !(ctxErr != nil && IsContextErr(err)) {
			if label := blocks[i/len(seeds)].Label; label != "" {
				err = fmt.Errorf("%s: %w", label, err)
			}
			return nil, nil, err
		}
	}
	if ctxErr != nil {
		return nil, nil, ctxErr
	}
	return gates, circuits, nil
}

// IsContextErr reports whether an error is (or wraps) a context
// cancellation. The engines use it to collapse context-flavoured unit
// errors into a cancelled run's single ctx.Err().
func IsContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
