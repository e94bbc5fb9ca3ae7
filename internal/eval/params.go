package eval

import (
	"context"
	"fmt"
	"sync/atomic"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/memo"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
)

// ParamKey is the content key of one prepared operating point: the gate
// name, the full bench parameter set the bench is built from, and the
// exp channel's empirical pure delay (the one BuildModels input that is
// not derived from the measurement). All fields are comparable value
// types, so keys index a map directly; distinct operating points (e.g.
// two VDD scales of one gate) always differ in Bench.
type ParamKey struct {
	Gate    string
	Bench   nor.Params
	ExpDMin float64
}

// OperatingPoint is one prepared operating point: the measured
// characteristic turned into the parametrized Fig. 7 model set, plus a
// pooled golden source — seeded with the bench the measurement ran on
// (so the construction cost is amortized into the pool too), or empty
// for a point loaded from a PointStore, whose benches are built only if
// a golden run actually needs one. An OperatingPoint is shared between
// cache users and safe for concurrent use: Models is immutable after
// preparation and BenchSource hands a private bench instance to every
// concurrent golden run.
type OperatingPoint struct {
	Key    ParamKey
	Models gate.Models
	Golden *BenchSource

	fitted gate.Fitted // the measure-and-fit output a PointStore persists
}

// Fitted returns the measure-and-fit output the point was assembled
// from: the bench measurement and the two NOR-frame hybrid fits.
func (pt *OperatingPoint) Fitted() gate.Fitted { return pt.fitted }

// ParamCache memoizes prepared operating points — the Gate.NewBench →
// Measure → Fit → Assemble chain every workload runs before its first
// unit, and its most expensive fixed cost — so a long-lived Session
// never re-measures or re-fits an operating point it has seen. It is a
// memo.Cache keyed by ParamKey (singleflight, failures not retained),
// bounded by SetLimit to a number of points: a point's dominant cost,
// its bench pool and model set, is roughly uniform across keys.
type ParamCache struct {
	m     *memo.Cache[ParamKey, *OperatingPoint]
	store atomic.Pointer[PointStore]
}

// PointStore is the on-disk tier a ParamCache can mount below its
// in-memory table (see internal/store): the measure-and-fit output of
// each operating point, so a later process assembles its model set
// without a transient solve or a fit. LoadPoint returns ok=false on a
// clean miss and on a corrupt or unreadable entry alike.
// Implementations must be safe for concurrent use; store errors never
// fail a lookup.
type PointStore interface {
	LoadPoint(key ParamKey) (gate.Fitted, bool, error)
	SavePoint(key ParamKey, f gate.Fitted) error
}

// pointTier adapts a PointStore to the memo's tier for one gate.
type pointTier struct {
	p PointStore
	g gate.Gate
}

// Load assembles a stored point without any transient or fit; one that
// fails to load or to assemble counts as a miss, and the save after
// the fresh preparation repairs it.
func (t pointTier) Load(key ParamKey) (*OperatingPoint, bool) {
	f, ok, err := t.p.LoadPoint(key)
	if err != nil || !ok {
		return nil, false
	}
	pt, err := assemble(t.g, key, f, &BenchSource{gate: t.g, params: key.Bench})
	return pt, err == nil
}

func (t pointTier) Save(key ParamKey, pt *OperatingPoint) { _ = t.p.SavePoint(key, pt.fitted) }

// SetStore mounts a persistent read-through/write-behind tier below the
// cache: a miss consults the store before measuring, and a freshly
// prepared point is saved back. Mount it before sharing the cache; nil
// unmounts.
func (c *ParamCache) SetStore(p PointStore) { c.store.Store(&p) }

// NewParamCache returns an empty parametrization cache.
func NewParamCache() *ParamCache {
	return &ParamCache{m: memo.New[ParamKey](func(*OperatingPoint) int64 { return 1 })}
}

// SetLimit bounds the number of retained operating points; zero (or
// negative) removes the bound. Shrinking evicts immediately, coldest
// first.
func (c *ParamCache) SetLimit(n int) { c.m.SetLimit(int64(n)) }

// ParamStats reports parametrization-cache effectiveness counters.
// DiskHits is omitted from JSON when zero, so the wire form of a
// session without a store is unchanged.
type ParamStats struct {
	Hits      int64 // lookups served from a cached or in-flight operating point
	Misses    int64 // lookups not served from memory
	DiskHits  int64 `json:",omitempty"` // memory misses served from the PointStore tier (no measure, no fit)
	Evictions int64 // completed operating points dropped by the memory bound
	Entries   int   // completed operating points currently stored
}

// Stats returns a snapshot of the cache counters.
func (c *ParamCache) Stats() ParamStats { return ParamStats(c.m.Stats()) }

// SolverStats aggregates the MNA solver counters of every completed
// operating point's bench pool — the measurement transients that
// prepared each point plus every golden run its pool served since.
// Points evicted by the memory bound leave the aggregate.
func (c *ParamCache) SolverStats() spice.SolverStats {
	var st spice.SolverStats
	for _, pt := range c.m.Values() {
		st.Add(pt.Golden.SolverStats())
	}
	return st
}

// OperatingPoint returns the prepared operating point for (g, p,
// expDMin), preparing it at most once per key. ctx cancels this
// caller's wait and aborts a preparation before it starts. A waiter
// whose leader was cancelled (the leader's own context, not the
// waiter's) retries under its own context, so concurrent jobs on one
// session cannot poison each other.
func (c *ParamCache) OperatingPoint(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*OperatingPoint, error) {
	key := ParamKey{Gate: g.Name(), Bench: p, ExpDMin: expDMin}
	var t memo.Tier[ParamKey, *OperatingPoint]
	if ps := c.store.Load(); ps != nil && *ps != nil {
		t = pointTier{p: *ps, g: g}
	}
	pt, _, err := c.m.Do(ctx, key, t, func(ctx context.Context) (*OperatingPoint, error) {
		return PrepareOperatingPoint(ctx, g, key.Bench, key.ExpDMin)
	})
	return pt, err
}

// PrepareOperatingPoint runs the uncached preparation chain for one
// operating point: build a golden bench, measure its characteristic
// delays, fit and assemble the Fig. 7 model set. ctx aborts between the
// stages; the bench itself seeds the returned source's instance pool.
func PrepareOperatingPoint(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*OperatingPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bench, err := g.NewBench(p)
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: bench: %w", g.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	meas, err := bench.Measure()
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: measure: %w", g.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := gate.Fit(g, meas, p.Supply)
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: models: %w", g.Name(), err)
	}
	return assemble(g, ParamKey{Gate: g.Name(), Bench: p, ExpDMin: expDMin}, f, NewGateBenchSource(bench))
}

// assemble turns a fitted point into an OperatingPoint over golden.
func assemble(g gate.Gate, key ParamKey, f gate.Fitted, golden *BenchSource) (*OperatingPoint, error) {
	models, err := gate.Assemble(g, f, key.Bench.Supply, key.ExpDMin)
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: models: %w", g.Name(), err)
	}
	return &OperatingPoint{Key: key, Models: models, Golden: golden, fitted: f}, nil
}
