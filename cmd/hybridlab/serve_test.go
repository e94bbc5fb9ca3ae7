package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hybriddelay/internal/serve"
)

// TestRunServeCmdLifecycle boots the serve subcommand on an ephemeral
// port, runs a gate job through the HTTP surface, reads /metrics, then
// stops it through the graceful-drain path and checks the golden store
// was flushed on the way out.
func TestRunServeCmdLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	dir := t.TempDir()
	var stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	o := serveOptions{
		addr: "127.0.0.1:0", engineFlags: engineFlags{parallel: 2, fast: true, store: dir},
		stderr: &stderr,
		ready:  func(url string) { ready <- url },
		stop:   stop,
	}
	done := make(chan error, 1)
	go func() { done <- o.run() }()
	var base string
	select {
	case base = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve never became ready")
	}

	spec := `{"kind":"gate","gate":"nor2","stimuli":[{"mode":"LOCAL","mu":2e-10,"sigma":1e-10,"transitions":2}],"seeds":[1]}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decode ack: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.ID == "" {
		t.Fatalf("submit: status %d, ack %+v", resp.StatusCode, ack)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := http.Get(base + "/v1/jobs/" + ack.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		var js struct {
			State serve.State `json:"state"`
			Error string      `json:"error"`
		}
		if err := json.NewDecoder(st.Body).Decode(&js); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		st.Body.Close()
		if js.State == serve.StateDone {
			break
		}
		if js.State == serve.StateFailed || js.State == serve.StateCancelled {
			t.Fatalf("job ended %s: %s", js.State, js.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", js.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var m serve.Metrics
	if err := json.NewDecoder(mr.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	mr.Body.Close()
	if m.Store == nil {
		t.Errorf("metrics omit the mounted store: %+v", m)
	}
	if m.Jobs[serve.StateDone] != 1 {
		t.Errorf("metrics job table: %+v", m.Jobs)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain")
	}
	for _, want := range []string{"serve: listening", "draining in-flight jobs", "serve: drained", "golden store"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("serve stderr missing %q:\n%s", want, stderr.String())
		}
	}
	// The drain flushed the write-behind store: the trace files are on
	// disk, not just queued.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Errorf("golden store dir empty after drain")
	}
}

// TestRunServeCmdBadSolver: flag validation fails before any listener
// is bound.
func TestRunServeCmdBadSolver(t *testing.T) {
	var stderr bytes.Buffer
	o := serveOptions{addr: "127.0.0.1:0", engineFlags: engineFlags{solver: "warp-drive"}, stderr: &stderr}
	if err := o.run(); err == nil || !strings.Contains(err.Error(), "unknown solver mode") {
		t.Errorf("bad -solver error = %v", err)
	}
}

// TestHTTPServerTimeouts: the servers drop clients that send slowly or
// idle, but set no write timeout, which would cut long SSE streams.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("missing timeouts: header %v, read %v, idle %v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("write timeout %v would cut event streams", hs.WriteTimeout)
	}
}

// TestRunLoadgenCmdEndToEnd runs the loadgen against its own
// in-process server and checks the BENCH_serve.json report: every job
// done, and the server's results byte-identical to a one-shot
// reference session.
func TestRunLoadgenCmdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var stdout, stderr bytes.Buffer
	o := loadgenOptions{
		serveOptions: serveOptions{engineFlags: engineFlags{parallel: 4, fast: true}, stdout: &stdout, stderr: &stderr},
		clients:      4, jobs: 1, out: out, verify: true,
	}
	if err := o.run(); err != nil {
		t.Fatalf("loadgen: %v\nstderr:\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, raw)
	}
	if rep.Jobs != 4 || rep.Failures != 0 {
		t.Errorf("report jobs: %+v", rep)
	}
	if !rep.Verified || !rep.ByteIdentical {
		t.Errorf("server results not verified byte-identical: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms || rep.JobsPerSec <= 0 {
		t.Errorf("implausible latency stats: %+v", rep)
	}
	if !strings.Contains(stderr.String(), "loadgen:") {
		t.Errorf("loadgen stderr silent:\n%s", stderr.String())
	}
}

// TestRunLoadgenCmdRefusesServerFlagsWithURL: the flags only the
// in-process server reads are refused next to -url, by name, before
// any request is made; the engine flags the reference session reads
// stay valid.
func TestRunLoadgenCmdRefusesServerFlagsWithURL(t *testing.T) {
	for _, fl := range [][]string{
		{"-store", t.TempDir()}, {"-golden-budget", "10"}, {"-param-limit", "1"},
		{"-per-client", "1"}, {"-max-active", "1"}, {"-backlog", "1"},
	} {
		err := runLoadgenCmd(append([]string{"-url", "http://127.0.0.1:1", "-fast", "-parallel", "1"}, fl...))
		if err == nil || !strings.Contains(err.Error(), fl[0]+" ") || !strings.Contains(err.Error(), "-url") {
			t.Errorf("loadgen -url with %s: error %v, want one naming %s", fl[0], err, fl[0])
		}
	}
}
