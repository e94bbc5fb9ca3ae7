package serve

import (
	"net/http/httptest"
	"testing"
	"time"

	"hybriddelay/internal/session"
)

// TestAdmissionUnit pins the gate's accounting deterministically, with
// no HTTP or timing in the loop.
func TestAdmissionUnit(t *testing.T) {
	a := NewAdmission(2, 1, 1)
	started := map[string]int{}
	start := func(c string) func() { return func() { started[c]++ } }

	if adm, q := a.Submit("a", start("a")); !adm || q {
		t.Fatalf("first a: admitted=%v queued=%v", adm, q)
	}
	// a is at its per-client budget: the second submission queues.
	if adm, q := a.Submit("a", start("a")); adm || !q {
		t.Fatalf("second a: admitted=%v queued=%v", adm, q)
	}
	// Backlog (capacity 1) is full: rejection.
	if adm, q := a.Submit("a", start("a")); adm || q {
		t.Fatalf("third a: admitted=%v queued=%v (want rejection)", adm, q)
	}
	// A different client still fits the global cap.
	if adm, q := a.Submit("b", start("b")); !adm || q {
		t.Fatalf("b: admitted=%v queued=%v", adm, q)
	}
	if started["a"] != 1 || started["b"] != 1 {
		t.Fatalf("started %v", started)
	}
	// Releasing a's slot dispatches its backlogged job.
	a.Release("a")
	if started["a"] != 2 {
		t.Fatalf("backlog not dispatched on release: %v", started)
	}
	st := a.Stats()
	if st.Admitted != 3 || st.Rejected != 1 || st.Running != 2 || st.Backlog != 0 {
		t.Fatalf("stats %+v", st)
	}
	a.Release("a")
	a.Release("b")
	if st := a.Stats(); st.Running != 0 {
		t.Fatalf("running %d after all releases", st.Running)
	}
}

// TestCanonicalResultJSONNil checks that projecting a missing result,
// as a job that never finished leaves it, is an error and not a panic.
func TestCanonicalResultJSONNil(t *testing.T) {
	if b, err := CanonicalResultJSON(nil); err == nil {
		t.Errorf("CanonicalResultJSON(nil) = %q, want an error", b)
	}
}

// TestRunLoadMixedClients is the load harness acceptance run: 8
// concurrent clients submit the mixed gate/circuit/sweep job set, the
// report carries latency percentiles and throughput, and every
// server-side result is byte-identical to the same job run directly on
// a fresh one-shot session at the same operating point.
func TestRunLoadMixedClients(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	p := fastParams()
	sess := session.New(session.Options{BaseParams: &p})
	srv, err := NewServer(Options{Session: sess, MaxActive: 4, PerClient: 2, Backlog: 64})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	ref := session.New(session.Options{BaseParams: &p})
	ctx, cancel := ctxTimeout(t, 10*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, hs.URL, LoadOptions{
		Clients:       8,
		JobsPerClient: 1,
		Reference:     ref,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("load run had %d failures: %+v", rep.Failures, rep)
	}
	if rep.Jobs != 8 {
		t.Fatalf("completed %d jobs, want 8", rep.Jobs)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms || rep.JobsPerSec <= 0 {
		t.Errorf("implausible latency report: %+v", rep)
	}
	if !rep.Verified || !rep.ByteIdentical {
		t.Errorf("server results diverged from one-shot reference: %+v", rep)
	}

	sctx, scancel := ctxTimeout(t, 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}
