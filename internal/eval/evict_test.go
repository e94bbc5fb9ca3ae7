package eval

import (
	"context"
	"testing"

	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
)

// evTrace builds a digitized trace with exactly n transitions, so its
// eviction cost is n+1.
func evTrace(n int) trace.Trace {
	ev := make([]trace.Event, n)
	v := false
	for i := range ev {
		v = !v
		ev[i] = trace.Event{Time: float64(i+1) * 1e-12, Value: v}
	}
	return trace.New(false, ev)
}

func evKey(seed int64) GoldenKey {
	return GoldenKey{Gate: "evict-test", Seed: seed}
}

// TestGoldenCacheEviction: the cost-based LRU must retain recently used
// entries, evict cold ones once over budget, and recompute evicted keys
// on the next lookup.
func TestGoldenCacheEviction(t *testing.T) {
	c := NewGoldenCache()
	c.SetLimit(25) // room for two 11-cost entries, not three

	computes := map[int64]int{}
	get := func(seed int64) {
		t.Helper()
		if _, _, err := c.GetOrCompute(evKey(seed), func() (trace.Trace, error) {
			computes[seed]++
			return evTrace(10), nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	get(1)
	get(2)
	get(1) // touch 1, so 2 is now the coldest
	get(3) // over budget: evicts 2
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after third insert: stats %+v, want 1 eviction / 2 entries", st)
	}
	get(1) // still cached
	if computes[1] != 1 {
		t.Errorf("entry 1 recomputed %d times, want cached after touch", computes[1])
	}
	get(2) // evicted: must recompute
	if computes[2] != 2 {
		t.Errorf("entry 2 computed %d times, want 2 (recomputed after eviction)", computes[2])
	}
}

// TestGoldenCacheEvictionSets: circuit trace sets share the same LRU
// ring and cost accounting as single traces.
func TestGoldenCacheEvictionSets(t *testing.T) {
	c := NewGoldenCache()
	c.SetLimit(30)
	mkSet := func() (map[string]trace.Trace, error) {
		return map[string]trace.Trace{"a": evTrace(10), "b": evTrace(10)}, nil // cost 22
	}
	if _, _, err := c.GetOrComputeSet(evKey(1), mkSet); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompute(evKey(2), func() (trace.Trace, error) { return evTrace(10), nil }); err != nil {
		t.Fatal(err)
	}
	// 22 + 11 > 30: the set (older) is evicted.
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 eviction / 1 entry", st)
	}
	recomputed := false
	if _, _, err := c.GetOrComputeSet(evKey(1), func() (map[string]trace.Trace, error) {
		recomputed = true
		return mkSet()
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Error("evicted set entry was served from cache")
	}
}

// TestGoldenCacheOversizedEntry: an entry larger than the whole budget
// is returned to the caller but not retained.
func TestGoldenCacheOversizedEntry(t *testing.T) {
	c := NewGoldenCache()
	c.SetLimit(5)
	out, _, err := c.GetOrCompute(evKey(1), func() (trace.Trace, error) { return evTrace(10), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 10 {
		t.Fatalf("caller got %d events, want 10", len(out.Events))
	}
	st := c.Stats()
	if st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want the oversized entry evicted immediately", st)
	}
}

// TestGoldenCacheUnboundedByDefault: without SetLimit nothing is ever
// evicted (the historical behaviour).
func TestGoldenCacheUnboundedByDefault(t *testing.T) {
	c := NewGoldenCache()
	for seed := int64(0); seed < 50; seed++ {
		if _, _, err := c.GetOrCompute(evKey(seed), func() (trace.Trace, error) { return evTrace(100), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != 50 {
		t.Fatalf("stats %+v, want 0 evictions / 50 entries", st)
	}
}

// TestParamCacheEviction: the operating-point LRU retains at most the
// configured number of points and re-prepares evicted ones.
func TestParamCacheEviction(t *testing.T) {
	g := &fakeGate{name: "fake2"}
	c := NewParamCache()
	c.SetLimit(1)
	ctx := context.Background()
	p1 := nor.DefaultParams()
	p2 := p1
	p2.CO *= 2

	if _, err := c.OperatingPoint(ctx, g, p1, 20e-12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OperatingPoint(ctx, g, p2, 20e-12); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 eviction / 1 entry", st)
	}
	// p1 was evicted: looking it up again re-measures.
	if _, err := c.OperatingPoint(ctx, g, p1, 20e-12); err != nil {
		t.Fatal(err)
	}
	if got := g.measures.Load(); got != 3 {
		t.Errorf("measured %d times, want 3 (p1 re-prepared after eviction)", got)
	}
	// Raising the limit stops the churn.
	c.SetLimit(0)
	if _, err := c.OperatingPoint(ctx, g, p2, 20e-12); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OperatingPoint(ctx, g, p1, 20e-12); err != nil {
		t.Fatal(err)
	}
	if got := g.measures.Load(); got != 4 {
		t.Errorf("measured %d times, want 4 (only the evicted p2 re-prepared)", got)
	}
}
