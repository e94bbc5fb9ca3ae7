package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// fastParams returns coarse-step bench parameters for quick analog
// test runs (the repository-wide test operating point).
func fastParams() nor.Params {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	return p
}

// newTestServer starts an httptest server around a fast-params session
// and returns both plus a cleanup-registered shutdown.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Session == nil {
		p := fastParams()
		opt.Session = session.New(session.Options{BaseParams: &p})
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := ctxTimeout(t, 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, hs
}

func testStimulus(transitions int) sweep.Stimulus {
	return sweep.Stimulus{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: transitions}
}

// submit posts a spec and returns the job id (fails the test on any
// non-202 answer).
func submit(t *testing.T, base string, spec JobSpec, key string) string {
	t.Helper()
	id, status, body := trySubmit(t, base, spec, key)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	return id
}

// trySubmit posts a spec and reports whatever came back.
func trySubmit(t *testing.T, base string, spec JobSpec, key string) (id string, status int, body string) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var ack struct {
		ID string `json:"id"`
	}
	json.Unmarshal(buf.Bytes(), &ack)
	return ack.ID, resp.StatusCode, buf.String()
}

// getStatus fetches GET /v1/jobs/{id}.
func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, base, id)
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metrics scrapes GET /metrics.
func metrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

// TestServeGateJobWarmRepeat pins the acceptance criterion: a warm
// server answers a repeated gate job without a single new transient
// solve — the golden cache serves the traces, the parametrization
// cache serves the operating point, and the /metrics solver counters
// stand still.
func TestServeGateJobWarmRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2)}, Seeds: []int64{1, 2}}

	id1 := submit(t, hs.URL, spec, "")
	st1 := waitTerminal(t, hs.URL, id1, 120*time.Second)
	if st1.State != StateDone {
		t.Fatalf("cold job ended %s: %s", st1.State, st1.Error)
	}
	cold := metrics(t, hs.URL)
	if cold.Session.Solver.Steps == 0 {
		t.Fatalf("cold run reports no solver steps: %+v", cold.Session.Solver)
	}

	id2 := submit(t, hs.URL, spec, "")
	st2 := waitTerminal(t, hs.URL, id2, 120*time.Second)
	if st2.State != StateDone {
		t.Fatalf("warm job ended %s: %s", st2.State, st2.Error)
	}
	warm := metrics(t, hs.URL)
	if warm.Session.Solver != cold.Session.Solver {
		t.Errorf("warm repeat ran new transient solves:\ncold %+v\nwarm %+v", cold.Session.Solver, warm.Session.Solver)
	}
	if warm.Session.Golden.Hits <= cold.Session.Golden.Hits {
		t.Errorf("warm repeat did not hit the golden cache: cold hits %d, warm hits %d",
			cold.Session.Golden.Hits, warm.Session.Golden.Hits)
	}

	// The two runs' payloads are byte-identical under the canonical
	// projection.
	j1, err := CanonicalResultJSON(st1.Result)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	j2, err := CanonicalResultJSON(st2.Result)
	if err != nil {
		t.Fatalf("canonical: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("warm repeat changed the result payload")
	}
}

// TestServeSpecValidation exercises the 400 surface.
func TestServeSpecValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("httptest server spins a session in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	cases := []JobSpec{
		{},                                  // no kind
		{Kind: "unknown"},                   // bad kind
		{Kind: session.KindGate},            // no stimuli
		{Kind: session.KindGate, Gate: "x"}, // unknown gate
		{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{{Mode: gen.Local, Mu: -1}}},
		{Kind: session.KindCircuit, Stimuli: []sweep.Stimulus{testStimulus(1)}},                   // no circuit
		{Kind: session.KindCircuit, Circuit: "bogus", Stimuli: []sweep.Stimulus{testStimulus(1)}}, // unknown builtin
		{Kind: session.KindSweep}, // no spec
		{Kind: session.KindSweep, Gate: "nor2", Sweep: &sweep.Spec{Stimuli: []sweep.Stimulus{testStimulus(1)}}}, // stray field
		// Oversized seed counts are refused before the seed list is allocated.
		{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(1)}, SeedCount: 1 << 40},
		{Kind: session.KindSweep, Sweep: &sweep.Spec{Stimuli: []sweep.Stimulus{testStimulus(1)}, SeedCount: 1 << 40}},
	}
	for i, spec := range cases {
		if _, status, body := trySubmit(t, hs.URL, spec, ""); status != http.StatusBadRequest {
			t.Errorf("case %d: status %d (want 400): %s", i, status, body)
		}
	}
	// Specs that are valid but one past a size bound are refused by the
	// bound: one case per cap.
	many := make([]sweep.Stimulus, maxStimuli+1)
	for i := range many {
		many[i] = testStimulus(i + 1)
	}
	huge, err := netlist.InverterChain("huge", maxInstances)
	if err != nil {
		t.Fatal(err)
	}
	axis := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1 + float64(i)/float64(n)
		}
		return out
	}
	bounded := []JobSpec{
		{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(maxTransitions + 1)}},
		{Kind: session.KindGate, Gate: "nor2", Stimuli: many},
		{Kind: session.KindCircuit, Netlist: huge, Stimuli: []sweep.Stimulus{testStimulus(1)}},
		{Kind: session.KindSweep, Sweep: &sweep.Spec{Stimuli: []sweep.Stimulus{testStimulus(1)},
			VDDScale: axis(1 << 8), LoadScale: axis(1 << 8), SeedCount: 2}},
	}
	for i, spec := range bounded {
		if _, status, body := trySubmit(t, hs.URL, spec, ""); status != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("bounded case %d: status %d (want 400 naming the limit): %s", i, status, body)
		}
	}
	// Unknown job id surfaces 404 on every per-job endpoint.
	for _, ep := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(hs.URL + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d (want 404)", ep, resp.StatusCode)
		}
	}
}

// TestServeSSEStream verifies the event stream: replayed and live
// events arrive with strictly increasing sequence numbers, progress
// events report monotonically increasing per-phase completion, and the
// stream terminates with the "end" marker.
func TestServeSSEStream(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2), func() sweep.Stimulus {
		s := testStimulus(2)
		s.Mode = gen.Global
		return s
	}()}, Seeds: []int64{1, 2}}
	id := submit(t, hs.URL, spec, "")

	resp, err := http.Get(hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var (
		events    []Event
		lastByPh  = map[string]int{}
		sawEnd    bool
		lastSeq   int
		decodeErr error
	)
	for line := range sseDataLines(t, resp) {
		var e Event
		if decodeErr = json.Unmarshal([]byte(line), &e); decodeErr != nil {
			t.Fatalf("bad event %q: %v", line, decodeErr)
		}
		events = append(events, e)
		if e.Seq != lastSeq+1 {
			t.Fatalf("sequence jumped from %d to %d", lastSeq, e.Seq)
		}
		lastSeq = e.Seq
		switch e.Kind {
		case "progress":
			if e.Completed != lastByPh[e.Phase]+1 {
				t.Errorf("phase %s: completed jumped from %d to %d", e.Phase, lastByPh[e.Phase], e.Completed)
			}
			lastByPh[e.Phase] = e.Completed
		case "end":
			sawEnd = true
			if e.State != StateDone {
				t.Errorf("end state %s", e.State)
			}
		}
	}
	if !sawEnd {
		t.Fatalf("stream ended without terminal event (%d events)", len(events))
	}
	if lastByPh[session.PhaseEval] != 4 {
		t.Errorf("eval units reported %d, want 4", lastByPh[session.PhaseEval])
	}

	// Resumption: ?after=<seq of all but last two> replays only the tail.
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", hs.URL, id, lastSeq-2))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer resp2.Body.Close()
	var tail []Event
	for line := range sseDataLines(t, resp2) {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad resumed event: %v", err)
		}
		tail = append(tail, e)
	}
	if len(tail) != 2 || tail[0].Seq != lastSeq-1 || tail[1].Kind != "end" {
		t.Errorf("resume replayed %d events (want the 2-event tail): %+v", len(tail), tail)
	}
}

// sseDataLines yields the data payload of each SSE frame until the
// stream closes.
func sseDataLines(t *testing.T, resp *http.Response) func(func(string) bool) {
	t.Helper()
	return func(yield func(string) bool) {
		buf := make([]byte, 0, 4096)
		chunk := make([]byte, 1024)
		for {
			n, err := resp.Body.Read(chunk)
			buf = append(buf, chunk[:n]...)
			for {
				idx := bytes.Index(buf, []byte("\n\n"))
				if idx < 0 {
					break
				}
				frame := string(buf[:idx])
				buf = buf[idx+2:]
				for _, l := range strings.Split(frame, "\n") {
					if data, ok := strings.CutPrefix(l, "data: "); ok {
						if !yield(data) {
							return
						}
					}
				}
			}
			if err != nil {
				return
			}
		}
	}
}

// TestServeAdmissionQueue drives more long jobs than the gate admits
// at once: the second submission backlogs, the third bounces with 429,
// everything admitted still completes (backlog dispatch), and the
// accounting shows up in /metrics.
func TestServeAdmissionQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	// Serial session + a 64-unit sweep make each job long enough that
	// the whole submission sequence lands while the first is running.
	p := fastParams()
	sess := session.New(session.Options{BaseParams: &p, Workers: 1})
	_, hs := newTestServer(t, Options{Session: sess, MaxActive: 1, PerClient: 1, Backlog: 1})
	stims := make([]sweep.Stimulus, 0, 4)
	for _, tr := range []int{6, 7, 8, 9} {
		stims = append(stims, testStimulus(tr))
	}
	spec := JobSpec{Kind: session.KindSweep, Sweep: &sweep.Spec{
		Gates:     []string{"nor2"},
		Stimuli:   stims,
		SeedCount: 16,
	}}

	idA, statusA, bodyA := trySubmit(t, hs.URL, spec, "tenant-a")
	if statusA != http.StatusAccepted || strings.Contains(bodyA, `"queued":true`) {
		t.Fatalf("first submit: status %d body %s", statusA, bodyA)
	}
	idB, statusB, bodyB := trySubmit(t, hs.URL, spec, "tenant-b")
	if statusB != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", statusB, bodyB)
	}
	if !strings.Contains(bodyB, `"queued":true`) {
		t.Errorf("second submit was not backlogged under MaxActive=1: %s", bodyB)
	}
	if _, statusC, bodyC := trySubmit(t, hs.URL, spec, "tenant-c"); statusC != http.StatusTooManyRequests {
		t.Errorf("third submit: status %d (want 429): %s", statusC, bodyC)
	}

	for _, id := range []string{idA, idB} {
		if st := waitTerminal(t, hs.URL, id, 300*time.Second); st.State != StateDone {
			t.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	m := metrics(t, hs.URL)
	if m.Admission.Admitted != 2 {
		t.Errorf("admitted %d, want 2", m.Admission.Admitted)
	}
	if m.Admission.Rejected == 0 {
		t.Errorf("no rejection recorded: %+v", m.Admission)
	}
	if m.Jobs[StateDone] != 2 {
		t.Errorf("job table: %v, want 2 done", m.Jobs)
	}
}

// TestServeShutdownRefusesAndFlushes verifies the drain path: after
// Shutdown the server answers 503 and the write-behind store has
// landed every golden trace (Session.Close flushed it).
func TestServeShutdownRefusesAndFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	st := openTestStore(t)
	p := fastParams()
	sess := session.New(session.Options{BaseParams: &p, Store: st})
	srv, err := NewServer(Options{Session: sess, Store: st})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	spec := JobSpec{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{testStimulus(2)}, Seeds: []int64{1}}
	id := submit(t, hs.URL, spec, "")
	if st2 := waitTerminal(t, hs.URL, id, 120*time.Second); st2.State != StateDone {
		t.Fatalf("job ended %s: %s", st2.State, st2.Error)
	}

	ctx, cancel := ctxTimeout(t, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := st.Stats().Writes; w == 0 {
		t.Errorf("no store writes landed after Shutdown; stats %+v", st.Stats())
	}
	if _, status, _ := trySubmit(t, hs.URL, spec, ""); status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", status)
	}
}

// TestServeCircuitUndefinedRatio: a circuit job with a net whose
// inertial baseline has no area — net o = NOR(a, NAND(a, a)) is held at
// 0 and never switches — is served whole. Its status carries the result
// with the net's ratios as null, and its canonical projection equals a
// one-shot session's.
func TestServeCircuitUndefinedRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	_, hs := newTestServer(t, Options{})
	nl := &netlist.Netlist{Name: "stuck", Inputs: []string{"a"}, Outputs: []string{"n", "o"}, Instances: []netlist.Instance{
		{Name: "g1", Gate: "nand2", Inputs: []string{"a", "a"}, Output: "n"},
		{Name: "g2", Gate: "nor2", Inputs: []string{"a", "n"}, Output: "o"},
	}}
	spec := JobSpec{Kind: session.KindCircuit, Netlist: nl, Stimuli: []sweep.Stimulus{testStimulus(20)}, Seeds: []int64{1}}
	id := submit(t, hs.URL, spec, "")
	st := waitTerminal(t, hs.URL, id, 120*time.Second)
	if st.State != StateDone || st.Result == nil || st.Result.Circuit == nil || st.Error != "" {
		t.Fatalf("state %s, result %v, error %q", st.State, st.Result != nil, st.Error)
	}
	res := st.Result.Circuit
	for m, r := range res.Normalized["o"] {
		if !math.IsNaN(r) {
			t.Errorf("net o, model %s: ratio %g over a zero baseline, want NaN", m, r)
		}
	}
	for m, r := range res.Normalized["n"] {
		if math.IsNaN(r) {
			t.Errorf("net n, model %s: undefined ratio", m)
		}
	}
	job, err := spec.Job()
	if err != nil {
		t.Fatal(err)
	}
	p := fastParams()
	ref, err := session.New(session.Options{BaseParams: &p}).Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CanonicalResultJSON(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CanonicalResultJSON(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served result differs from the one-shot reference:\n got %s\nwant %s", got, want)
	}
	if !bytes.Contains(got, []byte(`"o": {`)) || !bytes.Contains(got, []byte("null")) {
		t.Errorf("canonical result has no null ratio for net o:\n%s", got)
	}
}

// TestServeNaNResultStatus: a result holding a NaN normalized area
// (NAND2 100/50 LOCAL at 20 transitions, seed 4 at the test operating
// point: the inertial baseline has no deviation) is served whole, with
// the undefined ratios as JSON null, which decode back to NaN. A
// NaN-free result keeps its exact bytes.
func TestServeNaNResultStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("analog evaluation in -short mode")
	}
	srv, hs := newTestServer(t, Options{})
	stim := sweep.Stimulus{Mode: gen.Local, Mu: 100 * waveform.Pico, Sigma: 50 * waveform.Pico, Transitions: 20}
	spec := func(seed int64) JobSpec {
		return JobSpec{Kind: session.KindGate, Gate: "nand2", Stimuli: []sweep.Stimulus{stim}, Seeds: []int64{seed}}
	}

	nan := waitTerminal(t, hs.URL, submit(t, hs.URL, spec(4), ""), 120*time.Second)
	if nan.State != StateDone || nan.Result == nil || nan.Error != "" {
		t.Fatalf("NaN job: state %s, result %v, error %q", nan.State, nan.Result != nil, nan.Error)
	}
	for m, r := range nan.Result.Gate[0].Normalized {
		if !math.IsNaN(r) {
			t.Errorf("model %s: ratio %g over a zero baseline, want NaN", m, r)
		}
	}

	id := submit(t, hs.URL, spec(1), "")
	ok := waitTerminal(t, hs.URL, id, 120*time.Second)
	if ok.State != StateDone || ok.Result == nil || ok.Error != "" {
		t.Fatalf("NaN-free job: state %s, result %v, error %q", ok.State, ok.Result != nil, ok.Error)
	}
	// The body is exactly what json.Encoder writes for the status.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body, want bytes.Buffer
	body.ReadFrom(resp.Body)
	j, _ := srv.Registry().Get(id)
	if err := json.NewEncoder(&want).Encode(j.Status()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body.Bytes(), want.Bytes()) {
		t.Errorf("status body changed bytes:\n got %s\nwant %s", body.Bytes(), want.Bytes())
	}
	// And its canonical projection equals a one-shot evaluation's.
	p := fastParams()
	one := spec(1)
	job, err := one.Job()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := session.New(session.Options{BaseParams: &p}).Evaluate(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CanonicalResultJSON(ok.Result)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := CanonicalResultJSON(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("served result differs from the one-shot reference")
	}
}
