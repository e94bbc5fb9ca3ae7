package eval

import (
	"context"
	"sync"
	"sync/atomic"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/memo"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
)

// GoldenRequest identifies one golden-reference run: the waveform
// configuration and seed the inputs were generated from, the generated
// input traces themselves, and the simulation horizon. Config and Seed
// fully determine Inputs and Until (trace generation is deterministic),
// so they can serve as a content key for memoization.
type GoldenRequest struct {
	Config gen.Config
	Seed   int64
	Inputs []trace.Trace
	Until  float64
}

// GoldenSource produces the digitized golden output trace for a request.
// Implementations must be safe for concurrent use; the evaluation fan-out
// calls Golden from multiple workers.
type GoldenSource interface {
	Golden(req GoldenRequest) (trace.Trace, error)
}

// BenchSource is a GoldenSource backed by a gate's transistor-level
// analog bench. Because a bench owns mutable simulator state
// (input-source signals, device charge state), one instance cannot run
// two transients at once; BenchSource keeps a free list of benches so
// that each concurrent request gets a private instance (extra instances
// are built on demand through the gate's constructor).
type BenchSource struct {
	gate   gate.Gate
	params nor.Params

	mu   sync.Mutex
	free []gate.Bench
}

// NewGateBenchSource wraps any gate bench as a concurrency-safe golden
// source. The given bench seeds the free list; additional instances are
// built on demand from its gate and parameters.
func NewGateBenchSource(b gate.Bench) *BenchSource {
	return &BenchSource{gate: b.Gate(), params: b.Params(), free: []gate.Bench{b}}
}

// Gate returns the gate all bench instances implement.
func (s *BenchSource) Gate() gate.Gate { return s.gate }

// Params returns the bench parameters all instances share.
func (s *BenchSource) Params() nor.Params { return s.params }

func (s *BenchSource) acquire() (gate.Bench, error) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return b, nil
	}
	s.mu.Unlock()
	return s.gate.NewBench(s.params)
}

func (s *BenchSource) release(b gate.Bench) {
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

// SolverStatser is implemented by benches and golden sources that can
// report cumulative MNA solver counters (factorizations, Newton
// iterations, sparse-mode traffic) for the traffic reports.
type SolverStatser interface {
	SolverStats() spice.SolverStats
}

// SolverStats aggregates the solver counters of the pooled bench
// instances. Only idle (released) instances are counted; between jobs
// the pool is fully idle, so a job-end snapshot sees every transient
// the source ever ran.
func (s *BenchSource) SolverStats() spice.SolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st spice.SolverStats
	for _, b := range s.free {
		if ss, ok := b.(SolverStatser); ok {
			st.Add(ss.SolverStats())
		}
	}
	return st
}

// Golden implements GoldenSource by running the analog transient on a
// private bench instance.
func (s *BenchSource) Golden(req GoldenRequest) (trace.Trace, error) {
	b, err := s.acquire()
	if err != nil {
		return trace.Trace{}, err
	}
	out, err := b.Golden(req.Inputs, req.Until)
	s.release(b)
	return out, err
}

// Leaser is implemented by golden sources that can lease a dedicated
// single-goroutine view for a run of consecutive units (batched
// transients). The leased source must only be used by one goroutine and
// must be released with the returned function when the batch is done.
// Leasing amortizes the per-unit free-list round trip and keeps one
// warm bench (and its solver workspace) pinned to the worker for the
// whole batch; the computed results are identical to the unleased path.
type Leaser interface {
	Lease() (GoldenSource, func(), error)
}

// leasedBench is a BenchSource lease: one pinned bench, no locking.
type leasedBench struct {
	b gate.Bench
}

// Golden implements GoldenSource on the pinned bench.
func (l leasedBench) Golden(req GoldenRequest) (trace.Trace, error) {
	return l.b.Golden(req.Inputs, req.Until)
}

// Lease implements Leaser by pinning one pooled bench until release.
func (s *BenchSource) Lease() (GoldenSource, func(), error) {
	b, err := s.acquire()
	if err != nil {
		return nil, nil, err
	}
	return leasedBench{b: b}, func() { s.release(b) }, nil
}

// GoldenKey is the content key of one golden run: the gate name, the
// bench parameters and the (config, seed) pair the inputs derive from.
// All fields are comparable value types, so keys can index a map
// directly. The gate name is part of the key so traces of different
// gates sharing one parameter set (the benches are all built from
// nor.Params) never collide.
type GoldenKey struct {
	Gate   string
	Bench  nor.Params
	Config gen.Config
	Seed   int64
}

// goldenRef keys the one memo behind a GoldenCache: single-gate traces
// and circuit trace sets share its cost budget but never its keys.
type goldenRef struct {
	key GoldenKey
	set bool
}

// goldenValue is a cached single trace or, for a set key, a circuit
// trace set.
type goldenValue struct {
	tr  trace.Trace
	set map[string]trace.Trace
}

// goldenCost is the eviction cost of a cached value: its stored
// transitions, plus one per trace so even an empty trace weighs
// something.
func goldenCost(v goldenValue) int64 {
	if v.set == nil {
		return int64(1 + len(v.tr.Events))
	}
	var c int64
	//hybrid:nondet-ok commutative integer sum; total is independent of visit order
	for _, tr := range v.set {
		c += int64(1 + len(tr.Events))
	}
	return max(c, 1)
}

// GoldenCache memoizes digitized golden traces by GoldenKey: a
// memo.Cache (singleflight, failures not retained) that one run, gate,
// bench or worker count can share with any other — the gate name and
// bench parameters are part of the key. Single-gate traces
// (GetOrCompute) and composed circuit trace sets (GetOrComputeSet,
// keyed by a netlist content key in the Gate field) share its cost
// budget but never its keys, so one cache backs a mixed sweep.
type GoldenCache struct {
	m     *memo.Cache[goldenRef, goldenValue]
	store atomic.Pointer[PersistentStore]
}

// PersistentStore is the on-disk tier a GoldenCache can mount below its
// in-memory tables (see internal/store for the content-addressed
// implementation). Load/LoadSet return ok=false on a clean miss;
// corrupt or unreadable entries are also reported as misses (the cache
// recomputes and overwrites them). Implementations must be safe for
// concurrent use. Store errors never fail a lookup — the cache treats
// the tier as strictly best-effort.
type PersistentStore interface {
	Load(key GoldenKey) (trace.Trace, bool, error)
	Save(key GoldenKey, tr trace.Trace) error
	LoadSet(key GoldenKey) (map[string]trace.Trace, bool, error)
	SaveSet(key GoldenKey, set map[string]trace.Trace) error
}

// goldenTier adapts a PersistentStore to the memo's tier.
type goldenTier struct{ p PersistentStore }

func (t goldenTier) Load(r goldenRef) (v goldenValue, ok bool) {
	var err error
	if r.set {
		v.set, ok, err = t.p.LoadSet(r.key)
	} else {
		v.tr, ok, err = t.p.Load(r.key)
	}
	return v, ok && err == nil
}

// Save spills a fresh value so later processes can warm-start; a
// failure is the store's problem, not this lookup's.
func (t goldenTier) Save(r goldenRef, v goldenValue) {
	if r.set {
		_ = t.p.SaveSet(r.key, v.set)
	} else {
		_ = t.p.Save(r.key, v.tr)
	}
}

// SetStore mounts a persistent read-through/write-behind tier below the
// in-memory cache: misses consult the store before computing, and
// freshly computed traces are saved back. Mount the store before
// handing the cache to workers; nil unmounts.
func (c *GoldenCache) SetStore(p PersistentStore) { c.store.Store(&p) }

// NewGoldenCache returns an empty golden-trace cache.
func NewGoldenCache() *GoldenCache {
	return &GoldenCache{m: memo.New[goldenRef](goldenCost)}
}

// SetLimit bounds the cache's memory to budget stored transitions
// (a trace costs its transitions plus one; a set sums its traces);
// zero or negative removes the bound. See memo.Cache.SetLimit.
func (c *GoldenCache) SetLimit(budget int64) { c.m.SetLimit(budget) }

// CacheStats reports cache effectiveness counters.
type CacheStats struct {
	Hits      int64 // lookups served from a cached or in-flight entry
	Misses    int64 // lookups not served from memory
	DiskHits  int64 // memory misses served from the persistent store tier
	Evictions int64 // completed entries dropped by the memory bound
	Entries   int   // completed entries currently stored
}

// Stats returns a snapshot of the cache counters. Entries counts
// completed single-trace and circuit trace-set entries together.
func (c *GoldenCache) Stats() CacheStats { return CacheStats(c.m.Stats()) }

// lookup runs one memo lookup under the mounted tier. A waiter handed
// another caller's error reports no hit: it was not served a trace.
func (c *GoldenCache) lookup(r goldenRef, compute func(context.Context) (goldenValue, error)) (goldenValue, bool, error) {
	var t memo.Tier[goldenRef, goldenValue]
	if p := c.store.Load(); p != nil && *p != nil {
		t = goldenTier{*p}
	}
	v, hit, err := c.m.Do(context.Background(), r, t, compute)
	return v, hit && err == nil, err
}

// GetOrCompute returns the cached trace for key, or runs compute exactly
// once per key (concurrent callers for the same key block on the first
// caller's result). Errors are returned to all waiters but evicted, so a
// later call retries. hit reports whether this lookup was served from a
// cached or in-flight entry: false when it computed, and false for an
// error outcome — a waiter handed an error counts as neither hit nor
// miss. CachedSource uses it to account hit rates per Tally (the
// sweep's per-scenario columns) on a cache shared across the whole
// grid.
func (c *GoldenCache) GetOrCompute(key GoldenKey, compute func() (trace.Trace, error)) (trace.Trace, bool, error) {
	v, hit, err := c.lookup(goldenRef{key: key}, func(context.Context) (goldenValue, error) {
		tr, err := compute()
		return goldenValue{tr: tr}, err
	})
	return v.tr, hit, err
}

// GetOrComputeSet is GetOrCompute for composed circuit golden
// runs: one transient produces the digitized traces of every recorded
// net, memoized together under a single key (conventionally carrying
// the netlist content key in the Gate field). The returned map is
// shared between callers and must be treated as read-only.
func (c *GoldenCache) GetOrComputeSet(key GoldenKey, compute func() (map[string]trace.Trace, error)) (map[string]trace.Trace, bool, error) {
	v, hit, err := c.lookup(goldenRef{key: key, set: true}, func(context.Context) (goldenValue, error) {
		set, err := compute()
		return goldenValue{set: set}, err
	})
	return v.set, hit, err
}

// CachedSource composes a GoldenCache over an inner GoldenSource. It
// relies on the GoldenRequest invariant that (Config, Seed) determine
// the inputs, which holds for requests built by the evaluation pipeline.
type CachedSource struct {
	Gate  string     // key component naming the gate topology
	Bench nor.Params // key component identifying the golden reference
	Cache *GoldenCache
	Src   GoldenSource
	Tally *Tally // when non-nil, counts this source's hits and misses
}

// Golden implements GoldenSource with memoization.
func (s CachedSource) Golden(req GoldenRequest) (trace.Trace, error) {
	key := GoldenKey{Gate: s.Gate, Bench: s.Bench, Config: req.Config, Seed: req.Seed}
	out, hit, err := s.Cache.GetOrCompute(key, func() (trace.Trace, error) {
		return s.Src.Golden(req)
	})
	s.Tally.count(hit, err)
	return out, err
}

// Lease implements Leaser by leasing the inner source when it supports
// leasing; the cache stays in front, so leased units still hit it.
func (s CachedSource) Lease() (GoldenSource, func(), error) {
	l, ok := s.Src.(Leaser)
	if !ok {
		return s, func() {}, nil
	}
	inner, release, err := l.Lease()
	if err != nil {
		return nil, nil, err
	}
	leased := s
	leased.Src = inner
	return leased, release, nil
}
