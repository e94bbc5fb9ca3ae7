package sparse

import (
	"context"
	"encoding/binary"
	"math"
	"strings"

	"hybriddelay/internal/la"
	"hybriddelay/internal/memo"
)

// CacheStats reports symbolic-cache effectiveness counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`      // lookups served from a cached or in-flight analysis
	Misses    int64 `json:"misses"`    // lookups that ran Analyze (exactly one Analyze per miss)
	Evictions int64 `json:"evictions"` // completed analyses dropped by the memory bound
	Entries   int   `json:"entries"`   // completed analyses currently stored
}

// SymbolicCache memoizes Analyze results process-wide, so every pooled
// bench clone, batched transient and serve tenant solving one topology
// at one operating point shares one immutable *Symbolic instead of
// running its own Markowitz pilot. It is a memo.Cache (singleflight,
// failures not retained, LRU with each analysis weighing one) keyed by
// content: the caller's scope string, the system size, the normalized
// Options and the raw pattern offsets.
//
// The scope keeps pivot orders deterministic: the pilot reads the
// representative matrix's *values*, so two operating points with one
// pattern must not race to seed one entry. Callers scope by whatever
// identifies the operating point (gate kind plus bench parameters, a
// netlist content key).
type SymbolicCache struct {
	m *memo.Cache[string, *Symbolic]
}

// NewSymbolicCache returns an empty cache bounded to limit completed
// analyses (0 or negative = unbounded).
func NewSymbolicCache(limit int) *SymbolicCache {
	c := &SymbolicCache{m: memo.New[string](func(*Symbolic) int64 { return 1 })}
	c.SetLimit(limit)
	return c
}

// SetLimit bounds the number of retained analyses; zero (or negative)
// removes the bound. Shrinking evicts immediately, coldest first.
func (c *SymbolicCache) SetLimit(n int) { c.m.SetLimit(int64(n)) }

// Stats returns a snapshot of the cache counters.
func (c *SymbolicCache) Stats() CacheStats {
	st := c.m.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, Entries: st.Entries}
}

// cacheKey builds the exact content key: no hashing, so distinct
// structures can never collide. The pattern is keyed as given —
// callers derive it deterministically from topology, so identical
// topologies produce identical slices.
func cacheKey(scope string, n int, pattern []int32, opt Options) string {
	opt.defaults()
	var b strings.Builder
	b.Grow(len(scope) + 21 + 4*len(pattern))
	b.WriteString(scope)
	var hdr [21]byte
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[5:], math.Float64bits(opt.PivotRel))
	binary.LittleEndian.PutUint64(hdr[13:], math.Float64bits(opt.RefactorRel))
	b.Write(hdr[:])
	var e [4]byte
	for _, off := range pattern {
		binary.LittleEndian.PutUint32(e[:], uint32(off))
		b.Write(e[:])
	}
	return b.String()
}

// Get returns the shared Symbolic for (scope, a's size, pattern, opt),
// analyzing at most once per key: concurrent callers for the same key
// block on the first caller's result. hit reports whether the analysis
// was shared; gen identifies the returned entry for a later Refresh.
func (c *SymbolicCache) Get(scope string, a *la.Matrix, pattern []int32, opt Options) (sym *Symbolic, gen uint64, hit bool, err error) {
	return c.Refresh(scope, a, pattern, opt, 0)
}

// Refresh re-analyzes after a staleness signal (ErrPivot): the caller
// passes the generation it obtained the stale Symbolic under. If the
// cache still holds that generation, this caller replaces it with a
// fresh analysis of a's current values; if another solver already
// refreshed the entry, the newer analysis is returned as a hit and no
// new pilot runs.
func (c *SymbolicCache) Refresh(scope string, a *la.Matrix, pattern []int32, opt Options, oldGen uint64) (sym *Symbolic, gen uint64, hit bool, err error) {
	key := cacheKey(scope, a.Rows, pattern, opt)
	for {
		sym, gen, hit, err = c.m.Refresh(context.Background(), key, oldGen, func(context.Context) (*Symbolic, error) {
			return Analyze(a, pattern, opt)
		})
		// Another caller's pilot failing on its own matrix values (not
		// part of the key) says nothing about ours: retry.
		if err == nil || !hit {
			return sym, gen, hit, err
		}
	}
}
