// Package memo is the one memoization cache behind the evaluation
// engine's expensive deterministic results: golden transients, prepared
// operating points and symbolic sparse analyses. eval.GoldenCache,
// eval.ParamCache and sparse.SymbolicCache are keyed wrappers over
// Cache.
package memo

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPanicked is wrapped by the error waiters receive when the caller
// computing their key panicked; the panic goes on in that caller.
var ErrPanicked = errors.New("memo: compute panicked")

// Tier is a level below memory, such as an on-disk store. Load reports
// ok=false on a clean miss and on an entry it cannot use alike, so a
// bad entry is recomputed and the Save after the compute repairs it.
// Implementations must be safe for concurrent use.
type Tier[K comparable, V any] interface {
	Load(key K) (v V, ok bool)
	Save(key K, v V)
}

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits      int64 // lookups served by another caller's compute, cached or in flight
	Misses    int64 // lookups that became the computing caller
	DiskHits  int64 // misses the Tier served instead of a compute
	Evictions int64 // completed entries dropped by the cost bound
	Entries   int   // completed entries currently stored
}

// entry is one cache slot; ready is closed once v and err are final.
// elem is set while the completed entry is on the LRU ring; in-flight
// and failed entries never join it.
type entry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	v     V
	err   error
	retry bool   // err is the computing caller's own context ending
	gen   uint64 // cache-unique, strictly increasing from 1
	cost  int64
	elem  *list.Element
}

// Cache memoizes values by key and is safe for concurrent use. The
// first caller of a key computes and later callers wait for its result
// (singleflight); a failed compute is not retained. Completed entries
// form a cost-bounded LRU; in-flight entries are never evicted, and a
// caller holding a value keeps it when it is evicted.
type Cache[K comparable, V any] struct {
	costOf func(V) int64

	mu    sync.Mutex
	table map[K]*entry[K, V]
	lru   list.List // completed entries, most recently used first
	limit int64     // cost budget; 0 or negative = unbounded
	total int64     // cost of the completed entries
	gen   uint64
	stats Stats
}

// New returns an empty, unbounded cache. cost weighs a completed value
// against the SetLimit budget.
func New[K comparable, V any](cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{costOf: cost, table: map[K]*entry[K, V]{}}
}

// SetLimit bounds the total cost of the completed entries; zero or
// negative removes the bound. Over budget, the least recently used
// entries are evicted, at once when shrinking. A value costing more
// than the whole budget still reaches its callers and is then evicted.
func (c *Cache[K, V]) SetLimit(budget int64) {
	c.mu.Lock()
	c.limit = budget
	c.evictLocked()
	c.mu.Unlock()
}

func (c *Cache[K, V]) evictLocked() {
	for c.limit > 0 && c.total > c.limit {
		e := c.lru.Remove(c.lru.Back()).(*entry[K, V])
		c.total -= e.cost
		delete(c.table, e.key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	return st
}

// Values returns the completed values, most recently used first.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).v)
	}
	return out
}

// Do returns the value for key, running compute for it at most once at
// a time. A miss first tries t (nil for none): a value t loads is a
// disk hit, and a computed one is saved to t.
//
// hit reports that this caller did not compute: the value, or the
// error, came from another caller or from t. Waiters get the computing
// caller's error, except when its own ctx ended: then they compute
// again under theirs. ctx also ends this caller's wait, and a caller
// whose ctx is done does not start a compute.
func (c *Cache[K, V]) Do(ctx context.Context, key K, t Tier[K, V], compute func(context.Context) (V, error)) (v V, hit bool, err error) {
	v, _, hit, err = c.do(ctx, key, 0, t, compute)
	return v, hit, err
}

// Refresh is Do, without a tier, for a caller whose value came with
// generation stale and has gone out of date. If the entry still has
// that generation, this caller replaces it with a fresh compute; if
// another caller already did, the newer value is a hit. stale = 0 is a
// plain lookup. gen identifies the returned value for a later Refresh.
func (c *Cache[K, V]) Refresh(ctx context.Context, key K, stale uint64, compute func(context.Context) (V, error)) (v V, gen uint64, hit bool, err error) {
	return c.do(ctx, key, stale, nil, compute)
}

func (c *Cache[K, V]) do(ctx context.Context, key K, stale uint64, t Tier[K, V], compute func(context.Context) (V, error)) (V, uint64, bool, error) {
	var zero V
	for {
		c.mu.Lock()
		e, ok := c.table[key]
		if ok && e.gen != stale {
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return zero, 0, false, ctx.Err()
			}
			if e.retry {
				if err := ctx.Err(); err != nil {
					return zero, 0, false, err
				}
				continue
			}
			if e.err == nil {
				c.mu.Lock()
				c.stats.Hits++
				if e.elem != nil && c.table[key] == e {
					c.lru.MoveToFront(e.elem)
				}
				c.mu.Unlock()
			}
			return e.v, e.gen, true, e.err
		}
		if ok && e.elem != nil {
			// Replacing the stale entry: take it off the ring.
			c.lru.Remove(e.elem)
			c.total -= e.cost
		}
		e = &entry[K, V]{key: key, ready: make(chan struct{})}
		c.gen++
		e.gen = c.gen
		c.table[key] = e
		c.stats.Misses++
		c.mu.Unlock()

		loaded := c.fill(ctx, e, t, compute)
		return e.v, e.gen, loaded, e.err
	}
}

// fill computes e as its key's computing caller and publishes it: a
// failed entry leaves the table, a completed one joins the ring, and
// the waiters are released. A panic publishes e as failed with
// ErrPanicked and goes on. fill reports whether t served the value.
func (c *Cache[K, V]) fill(ctx context.Context, e *entry[K, V], t Tier[K, V], compute func(context.Context) (V, error)) (loaded bool) {
	returned := false
	defer func() {
		var r any
		if !returned {
			// r stays nil when compute ended its goroutine
			// (runtime.Goexit), which then unwinds on by itself.
			r = recover()
			e.err = fmt.Errorf("%w: %v", ErrPanicked, r)
		}
		c.mu.Lock()
		if c.table[e.key] == e {
			if e.err != nil {
				delete(c.table, e.key)
			} else {
				e.cost = c.costOf(e.v)
				e.elem = c.lru.PushFront(e)
				c.total += e.cost
				c.evictLocked()
			}
		}
		if loaded {
			c.stats.DiskHits++
		}
		c.mu.Unlock()
		close(e.ready)
		if r != nil {
			panic(r)
		}
	}()
	if e.err = ctx.Err(); e.err == nil && t != nil {
		e.v, loaded = t.Load(e.key)
	}
	if e.err == nil && !loaded {
		if e.v, e.err = compute(ctx); e.err == nil && t != nil {
			t.Save(e.key, e.v)
		}
	}
	e.retry = e.err != nil && ctx.Err() != nil && errors.Is(e.err, ctx.Err())
	returned = true
	return loaded
}
