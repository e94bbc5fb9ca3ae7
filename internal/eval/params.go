package eval

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
)

// This file adds the second memoization layer of the evaluation engine:
// where GoldenCache skips re-simulating identical golden transients,
// ParamCache skips re-preparing identical operating points — the
// Gate.NewBench → Measure → BuildModels chain that every evaluation
// workload runs before its first unit, and by far the most expensive
// per-call fixed cost (a characteristic measurement is a family of
// analog transients plus two least-squares fits). A long-lived Session
// shares one ParamCache across gate evaluations, circuit evaluations
// and sweeps, so repeated workloads at the same operating point never
// re-measure or re-fit.

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
// a golden run actually needs one. An
// OperatingPoint is shared between cache users and safe for concurrent
// use: Models is immutable after preparation and BenchSource hands a
// private bench instance to every concurrent golden run.
type OperatingPoint struct {
	Key    ParamKey
	Models gate.Models
	Golden *BenchSource
}

// paramEntry is one cache slot; ready is closed once pt/err are set, so
// concurrent requests for the same key wait instead of re-measuring.
// elem is set when the completed entry joins the LRU ring; in-flight
// and failed entries never join it.
type paramEntry struct {
	ready chan struct{}
	pt    *OperatingPoint
	err   error
	elem  *list.Element
}

// ParamCache memoizes prepared operating points by ParamKey. It is safe
// for concurrent use and deduplicates in-flight preparations
// (singleflight): the first requester of a key measures and fits, later
// ones wait for its result. Failed preparations are not cached, so a
// later call retries. One cache may back any mix of workloads — the
// sweep engine's operating-point preparation, circuit model sets and
// single-gate evaluations all key by (gate, bench params, expDMin).
//
// Memory can be bounded with SetLimit: completed operating points then
// form an LRU (each point weighs one — a point's dominant cost, its
// bench pool and model set, is roughly uniform across keys) and the
// coldest points are evicted once the bound is exceeded. In-flight
// preparations are never evicted, and callers already holding a point
// keep it even if it is evicted underneath them.
type ParamCache struct {
	mu        sync.Mutex
	table     map[ParamKey]*paramEntry
	store     PointStore
	limit     int // max completed operating points; 0 = unbounded
	lru       *list.List
	hits      int64
	misses    int64
	diskHits  int64
	evictions int64
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

// SetStore mounts a persistent read-through/write-behind tier below the
// cache: a miss consults the store before measuring, and a freshly
// prepared point is saved back. Mount it before sharing the cache; nil
// unmounts.
func (c *ParamCache) SetStore(p PointStore) {
	c.mu.Lock()
	c.store = p
	c.mu.Unlock()
}

// NewParamCache returns an empty parametrization cache.
func NewParamCache() *ParamCache {
	return &ParamCache{table: map[ParamKey]*paramEntry{}, lru: list.New()}
}

// SetLimit bounds the number of retained operating points; zero (or
// negative) removes the bound. Shrinking evicts immediately, coldest
// first.
func (c *ParamCache) SetLimit(n int) {
	c.mu.Lock()
	c.limit = n
	c.evictOverLocked()
	c.mu.Unlock()
}

// evictOverLocked drops operating points from the cold end of the LRU
// ring until the bound is met. Caller holds mu.
func (c *ParamCache) evictOverLocked() {
	for c.limit > 0 && c.lru.Len() > c.limit {
		back := c.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(ParamKey)
		c.lru.Remove(back)
		delete(c.table, key)
		c.evictions++
	}
}

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
func (c *ParamCache) Stats() ParamStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	//hybrid:nondet-ok commutative count of completed entries; order-independent
	for _, e := range c.table {
		select {
		case <-e.ready:
			n++
		default:
		}
	}
	return ParamStats{Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits, Evictions: c.evictions, Entries: n}
}

// SolverStats aggregates the MNA solver counters of every completed
// operating point's bench pool — the measurement transients that
// prepared each point plus every golden run its pool served since.
// Points evicted by the memory bound leave the aggregate.
func (c *ParamCache) SolverStats() spice.SolverStats {
	c.mu.Lock()
	pts := make([]*OperatingPoint, 0, len(c.table))
	//hybrid:nondet-ok collects points for a commutative counter sum (SolverStats.Add); aggregate is order-independent
	for _, e := range c.table {
		select {
		case <-e.ready:
			if e.err == nil {
				pts = append(pts, e.pt)
			}
		default:
		}
	}
	c.mu.Unlock()
	var st spice.SolverStats
	for _, pt := range pts {
		st.Add(pt.Golden.SolverStats())
	}
	return st
}

// OperatingPoint returns the prepared operating point for (g, p,
// expDMin), preparing it at most once per key: concurrent callers for
// the same key block on the first caller's result. Errors are returned
// to all waiters but evicted, so a later call retries; ctx cancels the
// wait (and aborts a preparation before it starts), but never evicts a
// preparation another caller is still waiting on. A waiter whose
// leader was cancelled (the leader's own context, not the waiter's)
// does not inherit that cancellation: it retries the preparation under
// its own context, so concurrent jobs on one session cannot poison
// each other.
func (c *ParamCache) OperatingPoint(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*OperatingPoint, error) {
	key := ParamKey{Gate: g.Name(), Bench: p, ExpDMin: expDMin}
	for {
		c.mu.Lock()
		if e, ok := c.table[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				if cur, ok := c.table[key]; ok && cur == e && e.elem != nil {
					c.lru.MoveToFront(e.elem)
				}
				c.mu.Unlock()
				return e.pt, nil
			}
			if IsContextErr(e.err) {
				// The leader aborted because *its* context ended. The
				// failed entry is already evicted; retry as (or behind)
				// a new leader unless this caller is cancelled too.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				continue
			}
			return nil, e.err
		}
		e := &paramEntry{ready: make(chan struct{})}
		c.table[key] = e
		c.misses++
		store := c.store
		c.mu.Unlock()

		var fromDisk bool
		e.pt, fromDisk, e.err = loadOrPrepare(ctx, g, key, store)
		if e.err != nil {
			c.mu.Lock()
			delete(c.table, key)
			c.mu.Unlock()
		}
		close(e.ready)
		if e.err == nil {
			c.mu.Lock()
			if fromDisk {
				c.diskHits++
			}
			e.elem = c.lru.PushFront(key)
			c.evictOverLocked()
			c.mu.Unlock()
		}
		return e.pt, e.err
	}
}

// loadOrPrepare is the cache leader's miss path. Read-through: a point
// the store holds is assembled without any transient or fit; one that
// fails to load or to assemble counts as a miss. Otherwise the point is
// measured and fitted, and write-behind saves it — which also repairs
// a bad entry.
func loadOrPrepare(ctx context.Context, g gate.Gate, key ParamKey, store PointStore) (*OperatingPoint, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if store != nil {
		if f, ok, err := store.LoadPoint(key); err == nil && ok {
			if pt, err := assemble(g, key, f, &BenchSource{gate: g, params: key.Bench}); err == nil {
				return pt, true, nil
			}
		}
	}
	bench, f, err := measureAndFit(ctx, g, key.Bench)
	if err != nil {
		return nil, false, err
	}
	pt, err := assemble(g, key, f, NewGateBenchSource(bench))
	if err == nil && store != nil {
		_ = store.SavePoint(key, f)
	}
	return pt, false, err
}

// PrepareOperatingPoint runs the uncached preparation chain for one
// operating point: build a golden bench, measure its characteristic
// delays, fit and assemble the Fig. 7 model set. ctx aborts between the
// stages; the bench itself seeds the returned source's instance pool.
func PrepareOperatingPoint(ctx context.Context, g gate.Gate, p nor.Params, expDMin float64) (*OperatingPoint, error) {
	bench, f, err := measureAndFit(ctx, g, p)
	if err != nil {
		return nil, err
	}
	return assemble(g, ParamKey{Gate: g.Name(), Bench: p, ExpDMin: expDMin}, f, NewGateBenchSource(bench))
}

// measureAndFit builds a golden bench, measures its characteristic
// delays and fits the hybrid model: everything a PointStore persists.
func measureAndFit(ctx context.Context, g gate.Gate, p nor.Params) (gate.Bench, gate.Fitted, error) {
	if err := ctx.Err(); err != nil {
		return nil, gate.Fitted{}, err
	}
	bench, err := g.NewBench(p)
	if err != nil {
		return nil, gate.Fitted{}, fmt.Errorf("eval: gate %s: bench: %w", g.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, gate.Fitted{}, err
	}
	meas, err := bench.Measure()
	if err != nil {
		return nil, gate.Fitted{}, fmt.Errorf("eval: gate %s: measure: %w", g.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return nil, gate.Fitted{}, err
	}
	f, err := gate.Fit(g, meas, p.Supply)
	if err != nil {
		return nil, gate.Fitted{}, fmt.Errorf("eval: gate %s: models: %w", g.Name(), err)
	}
	return bench, f, nil
}

// assemble turns a fitted point into an OperatingPoint over golden.
func assemble(g gate.Gate, key ParamKey, f gate.Fitted, golden *BenchSource) (*OperatingPoint, error) {
	models, err := gate.Assemble(g, f, key.Bench.Supply, key.ExpDMin)
	if err != nil {
		return nil, fmt.Errorf("eval: gate %s: models: %w", g.Name(), err)
	}
	return &OperatingPoint{Key: key, Models: models, Golden: golden}, nil
}
