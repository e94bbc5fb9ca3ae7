package eval

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/idm"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// fakeGate is a synthetic registry-shaped gate whose preparation chain
// is instant, so cache tests exercise memoization and singleflight
// rather than analog accuracy. benches/measures count the expensive
// calls; failMeasure makes the next Measure fail once.
type fakeGate struct {
	name        string
	benches     atomic.Int64
	measures    atomic.Int64
	failMeasure atomic.Bool
}

func (g *fakeGate) Name() string         { return g.name }
func (g *fakeGate) Describe() string     { return "synthetic test gate" }
func (g *fakeGate) Arity() int           { return 2 }
func (g *fakeGate) Logic(in []bool) bool { return !(in[0] || in[1]) }
func (g *fakeGate) NewBench(p nor.Params) (gate.Bench, error) {
	g.benches.Add(1)
	return &fakeBench{g: g, p: p}, nil
}
func (g *fakeGate) Stamp(c *spice.Circuit, prefix, outName string, p nor.Params, vdd spice.NodeID, in []spice.NodeID, init []bool) (gate.Subcircuit, error) {
	return gate.Subcircuit{}, fmt.Errorf("fake gate has no analog subcircuit")
}
func (g *fakeGate) BuildModels(meas gate.Measurement, supply waveform.Supply, expDMin float64) (gate.Models, error) {
	// Table I parameters instead of a fitted characteristic: the cache
	// tests exercise memoization, not accuracy.
	hm := hybrid.TableI()
	hm0 := hm
	hm0.DMin = 0
	arcs, err := inertial.NORArcsFromSIS(40e-12, 38e-12, 53e-12, 56e-12)
	if err != nil {
		return gate.Models{}, err
	}
	exp, err := idm.ExpFromSIS(54.5e-12, 39e-12, expDMin)
	if err != nil {
		return gate.Models{}, err
	}
	return gate.Models{
		Gate:     g,
		Inertial: arcs.Arcs(),
		Exp:      exp,
		HM:       gate.NOR2Model{P: hm},
		HMNoDMin: gate.NOR2Model{P: hm0},
		Supply:   hm.Supply,
	}, nil
}

type fakeBench struct {
	g *fakeGate
	p nor.Params
}

func (b *fakeBench) Gate() gate.Gate    { return b.g }
func (b *fakeBench) Params() nor.Params { return b.p }
func (b *fakeBench) Measure() (gate.Measurement, error) {
	b.g.measures.Add(1)
	if b.g.failMeasure.CompareAndSwap(true, false) {
		return gate.Measurement{}, fmt.Errorf("synthetic measurement failure")
	}
	return gate.Measurement{}, nil
}
func (b *fakeBench) Golden(inputs []trace.Trace, until float64) (trace.Trace, error) {
	return trace.New(true, nil), nil
}

func TestParamCacheMemoizes(t *testing.T) {
	g := &fakeGate{name: "fake2"}
	cache := NewParamCache()
	ctx := context.Background()
	p1 := nor.DefaultParams()
	p2 := p1
	p2.CO *= 2

	first, err := cache.OperatingPoint(ctx, g, p1, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cache.OperatingPoint(ctx, g, p1, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("repeated lookup did not return the shared operating point")
	}
	if _, err := cache.OperatingPoint(ctx, g, p2, 20e-12); err != nil {
		t.Fatal(err)
	}
	// A different expDMin is a different parametrization.
	if _, err := cache.OperatingPoint(ctx, g, p1, 10e-12); err != nil {
		t.Fatal(err)
	}
	if got := g.measures.Load(); got != 3 {
		t.Errorf("measured %d times, want 3 (one per distinct key)", got)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 1 hit / 3 misses / 3 entries", st)
	}
}

func TestParamCacheSingleflight(t *testing.T) {
	g := &fakeGate{name: "fake2"}
	cache := NewParamCache()
	p := nor.DefaultParams()
	const callers = 16
	pts := make([]*OperatingPoint, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pt, err := cache.OperatingPoint(context.Background(), g, p, 20e-12)
			if err != nil {
				t.Error(err)
				return
			}
			pts[i] = pt
		}(i)
	}
	wg.Wait()
	if got := g.measures.Load(); got != 1 {
		t.Errorf("measured %d times under %d concurrent callers, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if pts[i] != pts[0] {
			t.Fatalf("caller %d got a different operating point", i)
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}
}

// memPointStore is an in-memory PointStore counting its traffic.
type memPointStore struct {
	mu           sync.Mutex
	pts          map[ParamKey]gate.Fitted
	loads, saves int
}

func (m *memPointStore) LoadPoint(k ParamKey) (gate.Fitted, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	f, ok := m.pts[k]
	return f, ok, nil
}

func (m *memPointStore) SavePoint(k ParamKey, f gate.Fitted) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saves++
	m.pts[k] = f
	return nil
}

// TestParamCacheStoreTier: concurrent callers of a cold cache over a
// point store measure once and save once; concurrent callers of a
// fresh cache over the filled store load once and never measure.
func TestParamCacheStoreTier(t *testing.T) {
	g := &fakeGate{name: "fake2"}
	ps := &memPointStore{pts: map[ParamKey]gate.Fitted{}}
	p := nor.DefaultParams()
	run := func() ParamStats {
		cache := NewParamCache()
		cache.SetStore(ps)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cache.OperatingPoint(context.Background(), g, p, 20e-12); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return cache.Stats()
	}
	if st := run(); st.Misses != 1 || st.DiskHits != 0 || ps.saves != 1 || g.measures.Load() != 1 {
		t.Fatalf("cold: stats %+v, %d saves, %d measures; want one miss, save and measure", st, ps.saves, g.measures.Load())
	}
	if st := run(); st.Misses != 1 || st.DiskHits != 1 || ps.loads != 2 || ps.saves != 1 || g.measures.Load() != 1 {
		t.Fatalf("warm: stats %+v, %d loads, %d saves, %d measures; want one disk hit and nothing else",
			st, ps.loads, ps.saves, g.measures.Load())
	}
}

func TestParamCacheErrorEviction(t *testing.T) {
	g := &fakeGate{name: "fake2"}
	g.failMeasure.Store(true)
	cache := NewParamCache()
	p := nor.DefaultParams()
	if _, err := cache.OperatingPoint(context.Background(), g, p, 20e-12); err == nil {
		t.Fatal("failed preparation did not error")
	}
	// The failure was evicted: the retry prepares again and succeeds.
	pt, err := cache.OperatingPoint(context.Background(), g, p, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if pt == nil || pt.Models.Gate == nil {
		t.Fatal("retry returned no operating point")
	}
	if got := g.measures.Load(); got != 2 {
		t.Errorf("measured %d times, want 2 (failure + retry)", got)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 entry and no hits", st)
	}
}

func TestParamCacheContextCancelled(t *testing.T) {
	g := &fakeGate{name: "fake2"}
	cache := NewParamCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.OperatingPoint(ctx, g, nor.DefaultParams(), 20e-12); err != context.Canceled {
		t.Fatalf("cancelled preparation returned %v, want context.Canceled", err)
	}
	if got := g.measures.Load(); got != 0 {
		t.Errorf("cancelled preparation still measured %d times", got)
	}
}

func TestPrepareOperatingPointRealGate(t *testing.T) {
	if testing.Short() {
		t.Skip("analog preparation in -short mode")
	}
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	pt, err := PrepareOperatingPoint(context.Background(), gate.NOR2, p, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Models.Gate.Name() != "nor2" {
		t.Errorf("prepared models for %q, want nor2", pt.Models.Gate.Name())
	}
	if pt.Golden == nil || pt.Golden.Gate().Name() != "nor2" {
		t.Error("prepared operating point has no pooled golden source")
	}
}
