package eval

import (
	"context"
	"reflect"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

func TestBatchSize(t *testing.T) {
	cases := []struct {
		total, workers, want int
	}{
		{100, 4, 13}, // ~two claims per worker, rounded up
		{8, 4, 1},    // never exceeds one claim's worth of need
		{1, 8, 1},    // never below one
		{16, 1, 8},   // serial still batches for lease amortization
	}
	for _, c := range cases {
		if got := batchSize(c.total, c.workers); got != c.want {
			t.Errorf("batchSize(%d, %d) = %d, want %d", c.total, c.workers, got, c.want)
		}
	}
}

// TestLeaseDelegation: leases pin one bench while keeping the
// computation identical, and the cache and its Tally stay in front of a
// leased source so batched units still hit it and are counted.
func TestLeaseDelegation(t *testing.T) {
	inner := &countingSource{}
	cache := NewGoldenCache()
	var tally Tally
	src := CachedSource{Gate: "nor2", Bench: nor.DefaultParams(), Cache: cache, Src: inner, Tally: &tally}

	leased, release, err := src.Lease()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	req := GoldenRequest{Config: testConfig(8), Seed: 1, Until: 1e-9}
	if _, err := leased.Golden(req); err != nil {
		t.Fatal(err)
	}
	if _, err := leased.Golden(req); err != nil {
		t.Fatal(err)
	}
	if inner.count() != 1 {
		t.Errorf("inner computed %d times under a lease, want 1 (cache in front)", inner.count())
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
	if h, m := tally.Hits.Load(), tally.Misses.Load(); h != 1 || m != 1 {
		t.Errorf("tally = %d hits / %d misses, want 1 / 1", h, m)
	}
}

// TestBenchSourceLeaseBitIdentical: a leased pooled bench returns the
// same trace as the shared path, and release returns the bench for the
// next lease instead of leaking pool slots.
func TestBenchSourceLeaseBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	src := NewGateBenchSource(evalBench(t))
	cfg := testConfig(6)
	inputs, err := gen.Traces(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := GoldenRequest{
		Config: cfg, Seed: 3, Inputs: inputs,
		Until: gen.Horizon(inputs, 600*waveform.Pico),
	}
	want, err := src.Golden(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		leased, release, err := src.Lease()
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		got, err := leased.Golden(req)
		release()
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lease %d: trace differs from shared path", i)
		}
	}
}

// TestEvaluateParallelBatchBitIdentical: the acceptance property of
// batched claiming — every batch size (one, small, auto, larger than
// the run) produces Area maps bit-identical to the serial reference
// (run under -race in CI).
func TestEvaluateParallelBatchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	src := NewGateBenchSource(evalBench(t))
	m := cheapModels(t)
	cfg := testConfig(24)
	seeds := []int64{1, 2, 3, 4, 5}

	serial, err := serialRun(src, m, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, batchSize(len(seeds), 4), 9} {
		parts, _, err := fanOut(context.Background(), []Block{{Config: cfg, Golden: src, Models: m}}, seeds, 4, batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res := MergeSeedResults(cfg, parts); !reflect.DeepEqual(res, serial) {
			t.Errorf("batch=%d: %+v != serial %+v", batch, res, serial)
		}
	}
}

// TestEvaluateCircuitBatchBitIdentical: batched circuit evaluation over
// the c17 benchmark netlist matches the serial reference exactly on
// every recorded net.
func TestEvaluateCircuitBatchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("analog golden runs in -short mode")
	}
	nl := netlist.C17("c17")
	m := cheapModels(t)
	nand, ok := gate.Lookup("nand2")
	if !ok {
		t.Fatal("nand2 not registered")
	}
	m.Gate = nand // the Table-I delay params stand in; only determinism matters here
	ms := netlist.ModelSet{"nand2": m}
	cfg := testConfig(8)
	cfg.Inputs = len(nl.Inputs)
	seeds := []int64{1, 2}
	src := circuitSource(t, nl, evalBench(t).Params())

	var parts []CircuitSeedResult
	for _, seed := range seeds {
		part, err := EvaluateCircuitSeedContext(context.Background(), src, nl, ms, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	serial := MergeCircuitSeedResults(nl, cfg, parts)
	for _, batch := range []int{1, batchSize(len(seeds), 4), 3} {
		_, got, err := fanOut(context.Background(), []Block{{Config: cfg, Circuit: src, Netlist: nl, Set: ms}}, seeds, 4, batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res := MergeCircuitSeedResults(nl, cfg, got); !reflect.DeepEqual(res, serial) {
			t.Errorf("batch=%d: %+v != serial %+v", batch, res, serial)
		}
	}
}

// TestFanOutMixedBlocksBitIdentical: a sweep-shaped run — gate and
// circuit blocks on distinct sources in one fan-out — returns the same
// per-unit results for every worker count and batch size (one, auto,
// larger than the run), each equal to the unit evaluated on its own,
// and reports every unit's block and seed through Progress.
func TestFanOutMixedBlocksBitIdentical(t *testing.T) {
	m := cheapModels(t)
	nl := singleNOR2Netlist()
	ms := netlist.ModelSet{"nor2": m}
	blocks := []Block{
		{Config: testConfig(8), Golden: &countingSource{}, Models: m},
		{Config: testConfig(12), Circuit: &syntheticCircuitSource{nets: []string{"o"}}, Netlist: nl, Set: ms},
		{Config: testConfig(6), Golden: keyStampSource{gate: "nor2"}, Models: m},
	}
	seeds := []int64{3, 1, 2}
	total := len(blocks) * len(seeds)
	ctx := context.Background()
	wantGate := make([]SeedResult, total)
	wantCirc := make([]CircuitSeedResult, total)
	for i := range wantGate {
		b, seed := blocks[i/len(seeds)], seeds[i%len(seeds)]
		var err error
		if b.Netlist != nil {
			wantCirc[i], err = EvaluateCircuitSeedContext(ctx, b.Circuit, b.Netlist, b.Set, b.Config, seed)
		} else {
			wantGate[i], err = EvaluateSeedContext(ctx, b.Golden, b.Models, b.Config, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, batchSize(total, workers), total + 1} {
			seen := make([]bool, total)
			gates, circuits, err := fanOut(ctx, blocks, seeds, workers, batch, func(p Progress) {
				for k, s := range seeds {
					if s == p.Seed {
						seen[p.Block*len(seeds)+k] = true
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gates, wantGate) || !reflect.DeepEqual(circuits, wantCirc) {
				t.Errorf("workers=%d batch=%d: per-unit results differ from the units run alone", workers, batch)
			}
			for i, ok := range seen {
				if !ok {
					t.Errorf("workers=%d batch=%d: unit %d never reported", workers, batch, i)
				}
			}
		}
	}
}
