package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

func testKey(seed int64) eval.GoldenKey {
	cfg := gen.PaperConfigs()[0]
	return eval.GoldenKey{Gate: "nor2", Bench: nor.DefaultParams(), Config: cfg, Seed: seed}
}

func testTrace() trace.Trace {
	return trace.New(true, []trace.Event{
		{Time: 1.25e-10, Value: false},
		{Time: 3.5e-10, Value: true},
		{Time: 7.125e-10, Value: false},
	})
}

func testSet() map[string]trace.Trace {
	return map[string]trace.Trace{
		"out22": testTrace(),
		"out23": trace.New(false, []trace.Event{{Time: 2e-10, Value: true}}),
		"empty": trace.New(true, nil),
	}
}

func openTest(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTripTrace(t *testing.T) {
	s := openTest(t)
	k := testKey(1)
	want := testTrace()
	if _, ok, err := s.Load(k); ok || err != nil {
		t.Fatalf("empty store: Load = %v, %v; want miss", ok, err)
	}
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(k)
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v; want hit", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the trace: %+v != %+v", got, want)
	}
	// An empty trace (no events) round-trips too.
	empty := trace.New(false, nil)
	k2 := testKey(2)
	if err := s.Save(k2, empty); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	got, ok, _ = s.Load(k2)
	if !ok || got.Initial != false || len(got.Events) != 0 {
		t.Errorf("empty-trace round trip = %+v, ok=%v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Writes != 2 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 2 writes", st)
	}
}

func TestRoundTripSet(t *testing.T) {
	s := openTest(t)
	k := testKey(3)
	want := testSet()
	if _, ok, _ := s.LoadSet(k); ok {
		t.Fatal("empty store served a set")
	}
	if err := s.SaveSet(k, want); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	got, ok, err := s.LoadSet(k)
	if err != nil || !ok {
		t.Fatalf("LoadSet = %v, %v; want hit", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("set round trip changed the traces:\n got %+v\nwant %+v", got, want)
	}
}

// TestKindAndKeySeparation: a trace entry never answers a set lookup
// for the same key, and nearby keys (different seed, different gate, a
// one-ULP parameter change) address different entries.
func TestKindAndKeySeparation(t *testing.T) {
	s := openTest(t)
	k := testKey(1)
	if err := s.Save(k, testTrace()); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if _, ok, _ := s.LoadSet(k); ok {
		t.Error("set lookup served by a trace entry")
	}
	if _, ok, _ := s.Load(testKey(2)); ok {
		t.Error("seed 2 served by seed 1's entry")
	}
	kg := k
	kg.Gate = "nand2"
	if _, ok, _ := s.Load(kg); ok {
		t.Error("nand2 served by nor2's entry")
	}
	kp := k
	kp.Bench.CO = math.Nextafter(kp.Bench.CO, math.Inf(1))
	if _, ok, _ := s.Load(kp); ok {
		t.Error("one-ULP parameter change served by the old entry")
	}
}

func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	want := testTrace()
	if err := s.Save(k, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Load(k)
	if err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("reopened Load = %+v, %v, %v; want the saved trace", got, ok, err)
	}
}

// objectFiles lists the object paths currently in the store.
func objectFiles(t *testing.T, s *Store) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(filepath.Join(s.dir, "objects"), func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruptionIsASoftMiss: a flipped byte anywhere in an entry makes
// the load a counted miss (never a wrong trace), and a rewrite heals
// the entry.
func TestCorruptionIsASoftMiss(t *testing.T) {
	s := openTest(t)
	k := testKey(1)
	if err := s.Save(k, testTrace()); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	files := objectFiles(t, s)
	if len(files) != 1 {
		t.Fatalf("%d object files, want 1", len(files))
	}
	orig, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a few positions spanning header, key, payload
	// and checksum.
	for _, pos := range []int{0, 5, 10, len(orig) / 2, len(orig) - 2} {
		bad := append([]byte(nil), orig...)
		bad[pos] ^= 0x40
		if err := os.WriteFile(files[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load(k); ok || err != nil {
			t.Errorf("corrupt byte %d: Load = %v, %v; want soft miss", pos, ok, err)
		}
	}
	// Truncations (torn writes) are rejected the same way.
	for _, n := range []int{1, 6, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(files[0], orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load(k); ok || err != nil {
			t.Errorf("truncated to %d: Load = %v, %v; want soft miss", n, ok, err)
		}
	}
	if st := s.Stats(); st.Corrupt == 0 {
		t.Error("corrupt loads not counted")
	}
	// The cache's recompute-and-save heals the entry.
	if err := s.Save(k, testTrace()); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	got, ok, _ := s.Load(k)
	if !ok || !reflect.DeepEqual(got, testTrace()) {
		t.Error("rewrite did not heal the corrupt entry")
	}
}

func TestVersionMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("hdgs-v999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "incompatible format") {
		t.Errorf("Open on foreign version = %v, want incompatible-format error", err)
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if err := s.Save(testKey(1), testTrace()); err == nil {
		t.Error("Save after Close succeeded")
	}
	if err := s.Flush(); err == nil {
		t.Error("Flush after Close succeeded")
	}
}

// TestSchemaDriftGuard pins the field counts of every struct the
// canonical key encoding spells out. Adding a field to any of them
// changes golden identity, so it MUST be added to keyString (and this
// count) — otherwise two benches differing only in the new field would
// share a store entry.
//
// This is the runtime backstop for hybridlint's keycomplete analyzer
// (internal/analysis, CI's lint-invariants job), which statically
// proves that every exported field of nor.Params /
// spice.TransientOptions / sparse.Options is referenced by each key
// builder. The two are deliberately redundant: the analyzer catches a
// field that never reaches keyString, this count catches drift in
// structs the analyzer has no rule for (MOSParams, Supply, GoldenKey,
// gen.Config) and any rename-and-readd the name-based check would miss.
func TestSchemaDriftGuard(t *testing.T) {
	for _, c := range []struct {
		name string
		v    interface{}
		want int
	}{
		{"eval.GoldenKey", eval.GoldenKey{}, 4},
		{"nor.Params", nor.Params{}, 13},
		{"waveform.Supply", waveform.Supply{}, 2},
		{"spice.MOSParams", spice.MOSParams{}, 8},
		{"gen.Config", gen.Config{}, 7},
		{"eval.ParamKey", eval.ParamKey{}, 3},
	} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%s has %d fields, keyString encodes %d — extend the canonical key encoding "+
				"(and bump the store version if the new field changes golden identity)",
				c.name, got, c.want)
		}
	}
	// The operating-point payload spells out these structs field by
	// field (pointFloats, encodePoint): a new field would be silently
	// dropped on disk.
	for _, c := range []struct {
		name string
		v    interface{}
		want int
	}{
		{"gate.Fitted", gate.Fitted{}, 3},
		{"gate.Measurement", gate.Measurement{}, 2},
		{"hybrid.Characteristic", hybrid.Characteristic{}, 6},
		{"hybrid.Params", hybrid.Params{}, 8},
		{"inertial.PinArcs", inertial.PinArcs{}, 2},
	} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%s has %d fields, the operating-point payload encodes %d — extend encodePoint "+
				"and pointFloats, and bump prepVersion", c.name, got, c.want)
		}
	}
}

// failingSource panics when asked to compute: it stands in for the
// analog solver in tests that assert a warm store serves everything.
type failingSource struct{ t *testing.T }

func (f failingSource) compute() (trace.Trace, error) {
	f.t.Fatal("golden recomputed despite a warm store")
	return trace.Trace{}, fmt.Errorf("unreachable")
}

// TestWarmStoreServesFreshCache: the acceptance property of the
// persistent tier — a process restart (modelled by a brand-new
// GoldenCache over the same store) performs zero golden computations
// for keys the previous run persisted.
func TestWarmStoreServesFreshCache(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(42)
	want := testTrace()
	wantSet := testSet()

	cold := eval.NewGoldenCache()
	cold.SetStore(st)
	got, _, err := cold.GetOrCompute(k, func() (trace.Trace, error) { return want, nil })
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("cold compute = %+v, %v", got, err)
	}
	ks := testKey(43)
	gotSet, _, err := cold.GetOrComputeSet(ks, func() (map[string]trace.Trace, error) { return wantSet, nil })
	if err != nil || !reflect.DeepEqual(gotSet, wantSet) {
		t.Fatalf("cold set compute = %+v, %v", gotSet, err)
	}
	if err := st.Close(); err != nil { // flush + simulate process exit
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := eval.NewGoldenCache()
	warm.SetStore(st2)
	fail := failingSource{t: t}
	got, _, err = warm.GetOrCompute(k, fail.compute)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("warm load = %+v, %v", got, err)
	}
	gotSet, _, err = warm.GetOrComputeSet(ks, func() (map[string]trace.Trace, error) {
		t.Fatal("set golden recomputed despite a warm store")
		return nil, nil
	})
	if err != nil || !reflect.DeepEqual(gotSet, wantSet) {
		t.Fatalf("warm set load = %+v, %v", gotSet, err)
	}
	cs := warm.Stats()
	if cs.DiskHits != 2 {
		t.Errorf("cache disk hits = %d, want 2", cs.DiskHits)
	}
	if cs.Hits != 0 {
		t.Errorf("cache memory hits = %d, want 0 on a fresh cache", cs.Hits)
	}
	// Second lookup in the same process is a memory hit, not a second
	// disk read.
	before := st2.Stats().Hits
	if _, _, err := warm.GetOrCompute(k, fail.compute); err != nil {
		t.Fatal(err)
	}
	if after := st2.Stats().Hits; after != before {
		t.Errorf("repeat lookup went to disk (%d -> %d store hits)", before, after)
	}
}

func BenchmarkStoreSave(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tr := testTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Save(testKey(int64(i)), tr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Flush()
}

func BenchmarkStoreLoad(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	k := testKey(1)
	if err := s.Save(k, testTrace()); err != nil {
		b.Fatal(err)
	}
	s.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Load(k); !ok || err != nil {
			b.Fatal("miss")
		}
	}
}
