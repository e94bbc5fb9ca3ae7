package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

// addFinished registers a job and drives it straight to the given
// terminal state (no evaluation runs).
func addFinished(t *testing.T, r *Registry, state State) *Job {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	j := r.Add(JobSpec{}, "client", nil, ctx, cancel)
	r.Start(j)
	r.Finish(j, state, nil, nil)
	return j
}

// TestRegistryTerminalTTLEviction: a terminal job past its TTL stops
// resolving by id and leaves the counts; queued/running jobs are never
// evicted; a subscriber already holding the *Job still drains the full
// event log to its "end" marker.
func TestRegistryTerminalTTLEviction(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { return now }
	r.ttl = time.Minute

	done := addFinished(t, r, StateDone)
	runCtx, runCancel := context.WithCancel(context.Background())
	t.Cleanup(runCancel)
	running := r.Add(JobSpec{}, "client", nil, runCtx, runCancel)
	r.Start(running)

	if _, ok := r.Get(done.ID); !ok {
		t.Fatal("fresh terminal job not resolvable")
	}
	now = now.Add(time.Minute)
	if _, ok := r.Get(done.ID); ok {
		t.Fatal("terminal job resolvable past its TTL")
	}
	if _, ok := r.Get(running.ID); !ok {
		t.Fatal("running job evicted by the terminal TTL")
	}
	if got := r.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	counts := r.Counts()
	if counts[StateDone] != 0 || counts[StateRunning] != 1 {
		t.Fatalf("counts after eviction: %v", counts)
	}
	// The held pointer keeps streaming: the buffered log is intact and
	// closes with the terminal marker, so a live SSE subscriber is
	// unaffected by the map eviction.
	evs, _ := done.EventsSince(0)
	if len(evs) == 0 || evs[len(evs)-1].Kind != "end" {
		t.Fatalf("evicted job's event log truncated: %+v", evs)
	}
}

// TestRegistryTerminalCountCap: over the retained-count cap, the
// oldest-finished terminal jobs are evicted first.
func TestRegistryTerminalCountCap(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { now = now.Add(time.Second); return now }
	r.ttl, r.maxTerminal = time.Hour, 2

	jobs := make([]*Job, 5)
	for i := range jobs {
		jobs[i] = addFinished(t, r, StateDone)
	}
	if got := r.Evictions(); got != 3 {
		t.Fatalf("Evictions = %d, want 3", got)
	}
	for _, j := range jobs[:3] {
		if _, ok := r.Get(j.ID); ok {
			t.Fatalf("job %s survived the count cap", j.ID)
		}
	}
	for _, j := range jobs[3:] {
		if _, ok := r.Get(j.ID); !ok {
			t.Fatalf("job %s evicted while within the cap", j.ID)
		}
	}
	if c := r.Counts(); c[StateDone] != 2 {
		t.Fatalf("counts after cap eviction: %v", c)
	}
}

// TestServeEventsAfterEndCloses: an SSE subscription to a terminal job
// whose ?after offset is at or past the "end" event must close
// immediately with an empty replay, not block on a notify channel that
// will never fire again. No evaluation runs — the job is fabricated
// directly in the registry.
func TestServeEventsAfterEndCloses(t *testing.T) {
	srv, hs := newTestServer(t, Options{})
	j := addFinished(t, srv.reg, StateDone)
	evs, _ := j.EventsSince(0)
	if len(evs) == 0 || evs[len(evs)-1].Kind != "end" {
		t.Fatalf("fabricated job log missing end marker: %+v", evs)
	}
	endSeq := evs[len(evs)-1].Seq

	cl := &http.Client{Timeout: 5 * time.Second}
	for _, after := range []int{endSeq, endSeq + 100} {
		resp, err := cl.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", hs.URL, j.ID, after))
		if err != nil {
			t.Fatalf("after=%d: %v", after, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("after=%d: stream did not close: %v", after, err)
		}
		if len(body) != 0 {
			t.Fatalf("after=%d: want empty replay, got %q", after, body)
		}
	}
	// An offset inside the log still replays the tail and terminates at
	// the end marker.
	resp, err := cl.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", hs.URL, j.ID, endSeq-1))
	if err != nil {
		t.Fatalf("tail replay: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("tail replay did not close: %v", err)
	}
	if !strings.Contains(string(body), `"kind":"end"`) {
		t.Fatalf("tail replay missing end event: %q", body)
	}
}

// TestServeEvictedJob404: over HTTP, a finished job answers its status
// until retention expires, then 404s; /metrics reports the eviction.
func TestServeEvictedJob404(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	srv, hs := newTestServer(t, Options{})
	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(1)}, Seeds: []int64{1}}
	id := submit(t, hs.URL, spec, "")
	if st := waitTerminal(t, hs.URL, id, 120*time.Second); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	// Jump the registry clock past the retention window; the next
	// lookup evicts lazily.
	srv.reg.mu.Lock()
	srv.reg.now = func() time.Time { return time.Now().Add(DefaultTerminalTTL + time.Minute) }
	srv.reg.mu.Unlock()

	resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job answered %d, want 404", resp.StatusCode)
	}
	m := metrics(t, hs.URL)
	if m.JobEvictions != 1 {
		t.Errorf("JobEvictions = %d, want 1", m.JobEvictions)
	}
	if m.Jobs[StateDone] != 0 {
		t.Errorf("evicted job still counted: %v", m.Jobs)
	}
}
