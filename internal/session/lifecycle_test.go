package session

import (
	"context"
	"fmt"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
)

// TestSessionCloseFlushesStore exercises the write-behind drain path
// end to end at the session layer, for every registered gate and a
// circuit: a job computes golden traces and prepares its operating
// points, both spill to the persistent store in the background,
// Session.Close flushes them before the process "exits", and a second
// session over a reopened store serves the same job from disk without
// a single transient solve or model fit, writing nothing, with a result
// byte-identical to the cold run.
func TestSessionCloseFlushesStore(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	jobs := map[string]Job{"c17": CircuitJob{
		Netlist: netlist.C17("c17"), Params: &p, Config: testConfig(5, 2), Seeds: []int64{1},
	}}
	for _, g := range []string{"nor2", "nand2", "nor3"} {
		arity := 2
		if g == "nor3" {
			arity = 3
		}
		jobs[g] = GateJob{Gate: g, Params: &p, Configs: []gen.Config{testConfig(arity, 2)}, Seeds: []int64{1, 2}}
	}
	for _, name := range []string{"nor2", "nand2", "nor3", "c17"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold, cs := runOnStore(t, dir, jobs[name])
			// After Close every background write must have landed: the
			// store's own counter is the ground truth (Flush waits for the
			// writer, not just the queue).
			if cs.Writes == 0 {
				t.Fatalf("no store writes landed after Session.Close; stats=%+v", cs)
			}
			warm, ws := runOnStore(t, dir, jobs[name])
			if st := warm.Stats.Solver; st.Steps != 0 || st.Iterations != 0 {
				t.Errorf("warm re-run solved transients: %d steps, %d iterations", st.Steps, st.Iterations)
			}
			if ps := warm.Stats.Params; ps.DiskHits != 1 || ps.Misses != ps.DiskHits {
				t.Errorf("warm re-run measured or fitted: param stats %+v, want its one point from disk", ps)
			}
			if warm.Stats.Golden.DiskHits == 0 || warm.Stats.Golden.DiskHits != warm.Stats.Golden.Misses {
				t.Errorf("warm re-run missed golden traces on disk: %+v", warm.Stats.Golden)
			}
			if ws.Misses != 0 || ws.Corrupt != 0 || ws.Writes != 0 {
				t.Errorf("warm re-run store traffic %+v, want hits only", ws)
			}
			if c, w := canonicalResult(cold), canonicalResult(warm); c != w {
				t.Errorf("warm result differs from the cold one:\ncold %s\nwarm %s", c, w)
			}
		})
	}
}

// runOnStore runs one job as a process start over the store in dir: a
// fresh store handle and Session, closed (flushed) before returning the
// result and the store's traffic.
func runOnStore(t *testing.T, dir string, job Job) (*Result, store.Stats) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s := New(Options{Store: st})
	res, err := s.Evaluate(context.Background(), job)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Session.Close: %v", err)
	}
	stats := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	return res, stats
}

// canonicalResult renders a result's content without its run-dependent
// stats. Formatting prints every float in its shortest round-trip form
// and every map in key order, so equal strings mean bit-identical
// values.
func canonicalResult(r *Result) string {
	c := *r
	c.Stats = Stats{}
	if c.Circuit != nil {
		cr := *c.Circuit
		cr.Solver = spice.SolverStats{}
		c.Circuit = &cr
	}
	return fmt.Sprintf("%+v %+v %+v", c.Gate, c.Models, c.Circuit)
}

// TestSessionCloseWithoutStore ensures Close is a no-op (and safe) on a
// session with no persistent tier.
func TestSessionCloseWithoutStore(t *testing.T) {
	if err := New(Options{}).Close(); err != nil {
		t.Fatalf("Close without store: %v", err)
	}
}

// TestSessionProgressSerializedMonotonic pins the serialized-delivery
// guarantee: Progress callbacks run one at a time and the eval-phase
// Completed counter increases strictly by one as observed inside the
// callback, even with many pooled workers finishing units
// concurrently. The callback mutates shared state without any locking
// of its own — under -race this fails loudly if delivery is not
// serialized.
func TestSessionProgressSerializedMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	p.Solver = spice.SparseFast
	var (
		last  int // eval-phase Completed as last observed; no mutex on purpose
		total int
		bad   []string
	)
	job := GateJob{
		Params:  &p,
		Configs: []gen.Config{testConfig(2, 2), testConfig(2, 3)},
		Seeds:   []int64{1, 2, 3},
		Progress: func(pr Progress) {
			if pr.Phase != PhaseEval {
				return
			}
			if pr.Completed != last+1 {
				bad = append(bad, "completed jumped")
			}
			last = pr.Completed
			total = pr.Total
		},
	}
	if _, err := New(Options{Workers: 8}).Evaluate(context.Background(), job); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(bad) != 0 {
		t.Fatalf("non-monotonic progress delivery: %d violations", len(bad))
	}
	if last != total || total != 6 {
		t.Fatalf("final progress %d/%d, want 6/6", last, total)
	}
}
