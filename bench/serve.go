package main

// serve-mixed runs serve.Server in a child process on loopback and
// drives it from the parent in two steps. The first is open loop: jobs
// arrive on a Poisson schedule generated from the seed at a fixed rate,
// whether or not earlier jobs have finished. The second is closed loop:
// it keeps a fixed number of jobs in the system, topping it up as jobs
// finish, and times every job and the completions per second. The
// generator lives in its own process so the server's busy worker
// cannot delay its submits, and it uses two HTTP connections, one for
// submits and one for /metrics and status reads. Completion is read
// from /metrics; every job's timestamps are read after its step, and a
// job's latency runs from when it was due to the server's ended_at, so
// the generator's poll cadence quantizes nothing.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/serve"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// serveTask is the server child's input: how often to set the server
// up, and the jobs that make the hot seeds hot.
type serveTask struct {
	Setups int             `json:"setups"`
	Warm   []serve.JobSpec `json:"warm"`
}

// serverHello is the line a server child prints once it listens: its
// URL and each set-up's time with the host's slowdown during it.
type serverHello struct {
	URL       string    `json:"url"`
	SetupS    []float64 `json:"setup_s"`
	SetupSlow []float64 `json:"setup_slow"`
}

// serveLoad is the generated load of one serve-mixed run.
type serveLoad struct {
	Rate          float64   // offered rate of the open-loop step [jobs/s]
	OpenSeconds   float64   // length of the open-loop step
	Arrivals      []arrival // the open-loop step's jobs, by due time
	ClosedSeconds float64   // length of the closed-loop step
	InSystem      int       // jobs the closed-loop step keeps in the system
	Closed        *jobMix   // job stream of the closed-loop step
	Poll          time.Duration
	ReplayEvery   int
}

// arrival is one scheduled job.
type arrival struct {
	At     float64 // due time after the step starts [s]
	Tenant int
	Spec   serve.JobSpec
}

// deck deals 0..n-1 in shuffled blocks, so every block of n draws holds
// each value once.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) draw() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// jobMix generates the serve-mixed job stream from one seeded source.
// Kinds come in exact proportions (every ten jobs: five gate, three
// circuit and two sweep jobs, shuffled), and every second unit seed is
// one of the hot seeds while the others were never used before, so two
// benchmark seeds differ in order and timing but not in composition.
type jobMix struct {
	gateStim       []sweep.Stimulus
	local          sweep.Stimulus // circuit and sweep jobs
	gates          []string
	circuits       []string
	gateSeeds      int
	hot            []int64
	fresh          int64
	kind, gateCase deck
	circuit        deck
	hotOrFresh     deck
	hotSeed        deck
	tenant         deck
}

// serveTenants is the number of API keys jobs are submitted under.
const serveTenants = 8

// serveTransitions is every served stimulus's length. Shorter ones can
// leave the inertial model without deviation on some seeds (NAND2
// 100/50 LOCAL at 20 transitions: 12% of seeds), which makes the
// normalized areas NaN; the server then cannot encode the job's status.
// At 30 no such seed turned up among 600 for any job shape of the mix.
const serveTransitions = 30

func newJobMix(rng *rand.Rand, seed int64, hot int) *jobMix {
	m := &jobMix{gates: []string{"nor2", "nand2"}, circuits: []string{"nor-invchain", "c17"}, gateSeeds: 2}
	for _, c := range gen.PaperConfigs() {
		m.gateStim = append(m.gateStim, sweep.Stimulus{Mode: c.Mode, Mu: c.Mu, Sigma: c.Sigma, Transitions: serveTransitions})
	}
	m.local = sweep.Stimulus{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: serveTransitions}
	for i := 0; i < hot; i++ {
		m.hot = append(m.hot, seed*10000+int64(i)+1)
	}
	m.fresh = seed*10000 + 1000
	m.kind = deck{rng: rng, n: 10}
	m.gateCase = deck{rng: rng, n: len(m.gates) * len(m.gateStim)}
	m.circuit = deck{rng: rng, n: len(m.circuits)}
	m.hotOrFresh = deck{rng: rng, n: 2}
	m.hotSeed = deck{rng: rng, n: hot}
	m.tenant = deck{rng: rng, n: serveTenants}
	return m
}

func (m *jobMix) gateSpec(g string, st sweep.Stimulus, seeds []int64) serve.JobSpec {
	return serve.JobSpec{Kind: session.KindGate, Gate: g, Stimuli: []sweep.Stimulus{st}, Seeds: seeds}
}

func (m *jobMix) circuitSpec(c string, seeds []int64) serve.JobSpec {
	return serve.JobSpec{Kind: session.KindCircuit, Circuit: c, Stimuli: []sweep.Stimulus{m.local}, Seeds: seeds}
}

func (m *jobMix) sweepSpec(seeds []int64) serve.JobSpec {
	return serve.JobSpec{Kind: session.KindSweep, Sweep: &sweep.Spec{
		Gates: m.gates, VDDScale: []float64{0.9, 1.0}, Stimuli: []sweep.Stimulus{m.local}, Seeds: seeds}}
}

// warmJobs are the set-up jobs: every job shape over all hot seeds.
func (m *jobMix) warmJobs() []serve.JobSpec {
	var out []serve.JobSpec
	for _, g := range m.gates {
		for _, st := range m.gateStim {
			out = append(out, m.gateSpec(g, st, m.hot))
		}
	}
	for _, c := range m.circuits {
		out = append(out, m.circuitSpec(c, m.hot))
	}
	return append(out, m.sweepSpec(m.hot))
}

// unitSeeds draws n distinct unit seeds.
func (m *jobMix) unitSeeds(n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		var s int64
		if m.hotOrFresh.draw() == 0 {
			s = m.hot[m.hotSeed.draw()]
		} else {
			m.fresh++
			s = m.fresh
		}
		if !containsSeed(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// next draws the next job and its tenant.
func (m *jobMix) next() (serve.JobSpec, int) {
	tenant := m.tenant.draw()
	switch k := m.kind.draw(); {
	case k < 5:
		c := m.gateCase.draw()
		return m.gateSpec(m.gates[c/len(m.gateStim)], m.gateStim[c%len(m.gateStim)], m.unitSeeds(m.gateSeeds)), tenant
	case k < 8:
		return m.circuitSpec(m.circuits[m.circuit.draw()], m.unitSeeds(1)), tenant
	default:
		return m.sweepSpec(m.unitSeeds(1)), tenant
	}
}

func containsSeed(xs []int64, s int64) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// serveRate is the open-loop step's offered rate: about a third of
// what the saturated server finishes per second at the commit that
// introduced the benchmark (about 26 jobs/s).
const serveRate = 8.5

// serveSchedule generates the serve-mixed inputs from the seed: the
// warm-up jobs of the hot seeds and both steps' job streams. The
// open-loop step holds exactly rate × length arrivals at uniformly
// drawn times (a Poisson process given its count).
func (e *env) serveSchedule() (*serveTask, *serveLoad) {
	rng := rand.New(rand.NewSource(e.seed))
	hot := 8
	t := &serveTask{Setups: 3}
	l := &serveLoad{Rate: serveRate, OpenSeconds: e.seconds / 2, ClosedSeconds: e.seconds / 2,
		InSystem: serveTenants, Poll: 10 * time.Millisecond, ReplayEvery: 10}
	if e.short {
		hot, t.Setups, l.OpenSeconds, l.ClosedSeconds = 1, 1, 0.3, 0.3
	}
	open := newJobMix(rng, e.seed, hot)
	t.Warm = open.warmJobs()
	n := int(math.Round(l.Rate * l.OpenSeconds))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * l.OpenSeconds
	}
	sort.Float64s(at)
	for _, a := range at {
		spec, tenant := open.next()
		l.Arrivals = append(l.Arrivals, arrival{At: a, Tenant: tenant, Spec: spec})
	}
	// The closed-loop step draws as many jobs as the server takes, from
	// its own stream whose fresh seeds never meet the first step's.
	l.Closed = newJobMix(rand.New(rand.NewSource(e.seed+1<<32)), e.seed, hot)
	l.Closed.fresh += 5000
	return t, l
}

// serveChild is the server side: set the server up cfg.Setups times
// (the last one stays up), announce its URL, serve until stdin closes.
// It probes the host's speed between the warm-up jobs and, while
// serving, every probePeriod.
func serveChild(ctx context.Context, t *task, stdin io.Reader, stdout io.Writer) error {
	cfg := t.Serve
	var (
		srv   *serve.Server
		hs    *http.Server
		hello serverHello
		pr    prober // while serving
	)
	for i := 0; i < cfg.Setups; i++ {
		if srv != nil {
			stopServer(srv, hs)
		}
		var setupPr prober
		start := time.Now()
		var err error
		if srv, hs, hello.URL, err = startServer(ctx, t.Workers, cfg.Warm, &setupPr); err != nil {
			return err
		}
		hello.SetupS = append(hello.SetupS, (time.Since(start) - setupPr.spent).Seconds())
		hello.SetupSlow = append(hello.SetupSlow, slowdown(setupPr.samples))
	}
	if srv == nil {
		return fmt.Errorf("serve: no set-up")
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := json.NewEncoder(stdout).Encode(hello); err != nil {
		return err
	}
	stop := pr.every(probePeriod)
	_, _ = io.Copy(io.Discard, stdin) // stdin closes when the load is done
	stop()
	runtime.ReadMemStats(&ms1)
	stopServer(srv, hs)
	return json.NewEncoder(stdout).Encode(&report{ProbeS: pr.samples, ProbeAt: pr.at, Counts: map[string]float64{
		"go.alloc_mb":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		"go.gc_cycles": float64(ms1.NumGC - ms0.NumGC),
	}})
}

// startServer builds a fresh session and server at the server CLI's
// defaults, warms the hot seeds in-process, probing after every warm-up
// job, and listens on loopback.
func startServer(ctx context.Context, workers int, warm []serve.JobSpec, pr *prober) (*serve.Server, *http.Server, string, error) {
	p := nor.DefaultParams()
	sess := session.New(session.Options{Workers: workers, Solver: spice.DenseExact, BaseParams: &p})
	srv, err := serve.NewServer(serve.Options{Session: sess})
	if err != nil {
		return nil, nil, "", err
	}
	for _, spec := range warm {
		job, err := spec.Job()
		if err != nil {
			return nil, nil, "", err
		}
		if _, err := sess.Evaluate(ctx, job); err != nil {
			return nil, nil, "", fmt.Errorf("serve: warm-up: %w", err)
		}
		pr.take()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) // returns once stopServer shuts hs down
	return srv, hs, "http://" + ln.Addr().String(), nil
}

func stopServer(srv *serve.Server, hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = hs.Shutdown(ctx) // a shutdown error leaves nothing to clean up
	_ = srv.Shutdown(ctx)
}

// jobRecord follows one submitted job.
type jobRecord struct {
	index   int
	due     time.Time
	sent    time.Time
	submit  time.Duration
	id      string
	state   serve.State
	created time.Time
	started time.Time
	ended   time.Time
	result  *session.Result // kept for replayed jobs only
	spec    serve.JobSpec
}

func (r *jobRecord) done() bool { return r.state == serve.StateDone }

// loadgen is the client side.
type loadgen struct {
	base        string
	submitC     *http.Client
	readC       *http.Client
	conns       int
	poll        time.Duration
	replayEvery int

	mu       sync.Mutex
	recs     []*jobRecord
	inflight int // submits awaiting their response
	accepted int // submits answered 202
	wg       sync.WaitGroup
}

// newLoadgen opens one connection for submits and, with two or more
// CPUs, a second one for reads.
func newLoadgen(base string, cpus int, l *serveLoad) *loadgen {
	client := func() *http.Client {
		return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	g := &loadgen{base: base, submitC: client(), conns: 1, poll: l.Poll, replayEvery: l.ReplayEvery}
	g.readC = g.submitC
	if cpus >= 2 {
		g.readC, g.conns = client(), 2
	}
	return g
}

func (g *loadgen) close() {
	g.submitC.CloseIdleConnections()
	g.readC.CloseIdleConnections()
}

// send submits one job on its own goroutine, so a slow answer never
// delays the next submit; the submits still share one connection.
func (g *loadgen) send(ctx context.Context, due time.Time, spec serve.JobSpec, tenant int) *jobRecord {
	g.mu.Lock()
	rec := &jobRecord{index: len(g.recs), due: due.Round(0), sent: time.Now().Round(0), spec: spec, state: serve.StateFailed}
	g.recs = append(g.recs, rec)
	g.inflight++
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.submit(ctx, rec, tenant)
	}()
	return rec
}

// submit posts one job. The round trip includes any wait for the
// submit connection.
func (g *loadgen) submit(ctx context.Context, rec *jobRecord, tenant int) {
	id := ""
	defer func() {
		g.mu.Lock()
		rec.id = id
		if id != "" {
			g.accepted++
		}
		g.inflight--
		g.mu.Unlock()
	}()
	body, err := json.Marshal(rec.spec)
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", fmt.Sprintf("tenant-%d", tenant))
	resp, err := g.submitC.Do(req)
	rec.submit = time.Since(rec.sent)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return // refused (429) or rejected: the job stays failed
	}
	var ack struct {
		ID string `json:"id"`
	}
	if json.NewDecoder(resp.Body).Decode(&ack) == nil {
		id = ack.ID
	}
}

// get decodes one JSON GET on the read connection.
func (g *loadgen) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.readC.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (g *loadgen) metrics(ctx context.Context) (*serve.Metrics, error) {
	var m serve.Metrics
	return &m, g.get(ctx, "/metrics", &m)
}

// outstanding counts the jobs sent and not yet terminal on the server.
func (g *loadgen) outstanding(ctx context.Context) (int, error) {
	m, err := g.metrics(ctx)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight + g.accepted - m.Jobs[serve.StateDone] - m.Jobs[serve.StateFailed] - m.Jobs[serve.StateCancelled], nil
}

// drain waits (untimed) until every job sent is terminal.
func (g *loadgen) drain(ctx context.Context) error {
	g.wg.Wait()
	deadline := time.Now().Add(time.Minute)
	for {
		n, err := g.outstanding(ctx)
		switch {
		case err != nil:
			return err
		case n == 0:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("serve: %d jobs still in the system after a minute", n)
		}
		time.Sleep(g.poll)
	}
}

// openLoop offers the arrivals on schedule, waits out the step and
// drains. It returns the step's records and start.
func (g *loadgen) openLoop(ctx context.Context, l *serveLoad) ([]*jobRecord, time.Time, error) {
	start := time.Now()
	var recs []*jobRecord
	for _, a := range l.Arrivals {
		due := start.Add(time.Duration(a.At * float64(time.Second)))
		time.Sleep(time.Until(due))
		recs = append(recs, g.send(ctx, due, a.Spec, a.Tenant))
	}
	time.Sleep(time.Until(start.Add(time.Duration(l.OpenSeconds * float64(time.Second)))))
	return recs, start.Round(0), g.drain(ctx)
}

// closedLoop keeps l.InSystem jobs in the system for l.ClosedSeconds,
// then drains. It returns the step's records, start and end.
func (g *loadgen) closedLoop(ctx context.Context, l *serveLoad) ([]*jobRecord, time.Time, time.Time, error) {
	start := time.Now()
	end := start.Add(time.Duration(l.ClosedSeconds * float64(time.Second)))
	var recs []*jobRecord
	for time.Now().Before(end) {
		n, err := g.outstanding(ctx)
		if err != nil {
			return nil, start, end, err
		}
		for ; n < l.InSystem; n++ {
			spec, tenant := l.Closed.next()
			recs = append(recs, g.send(ctx, time.Now(), spec, tenant))
		}
		time.Sleep(g.poll)
	}
	return recs, start.Round(0), end.Round(0), g.drain(ctx)
}

// collect reads every job's timestamps, and the results of the jobs
// sampled for replay.
func (g *loadgen) collect(ctx context.Context) error {
	for _, r := range g.recs {
		if r.id == "" {
			continue
		}
		var st serve.JobStatus
		if err := g.get(ctx, "/v1/jobs/"+r.id, &st); err != nil {
			return err
		}
		r.state, r.created = st.State, st.CreatedAt
		if st.StartedAt != nil {
			r.started = *st.StartedAt
		}
		if st.EndedAt != nil {
			r.ended = *st.EndedAt
		}
		if g.replayEvery > 0 && r.index%g.replayEvery == 0 {
			r.result = st.Result
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveRun is what the generator measured.
type serveRun struct {
	all         []*jobRecord
	open        []*jobRecord
	closed      []*jobRecord
	openStart   time.Time
	closedStart time.Time
	closedEnd   time.Time
	m0, m1      *serve.Metrics // /metrics around the open-loop step
	conns       int
	replayed    int
	mismatches  []string
}

// runServeLoad drives both steps against the server at base.
func runServeLoad(ctx context.Context, base string, cpus int, l *serveLoad) (*serveRun, error) {
	g := newLoadgen(base, cpus, l)
	defer g.close()
	sr := &serveRun{conns: g.conns}
	var err error
	if sr.m0, err = g.metrics(ctx); err != nil {
		return nil, err
	}
	if sr.open, sr.openStart, err = g.openLoop(ctx, l); err != nil {
		return nil, err
	}
	if sr.m1, err = g.metrics(ctx); err != nil {
		return nil, err
	}
	if sr.closed, sr.closedStart, sr.closedEnd, err = g.closedLoop(ctx, l); err != nil {
		return nil, err
	}
	if err := g.collect(ctx); err != nil {
		return nil, err
	}
	sr.all = g.recs
	return sr, nil
}

// latencies are due → ended_at of a step's jobs; a job that was
// refused or failed counts as taking the whole step.
func latencies(recs []*jobRecord, seconds float64) []float64 {
	penalty := ms(time.Duration(seconds * float64(time.Second)))
	var out []float64
	for _, r := range recs {
		if r.done() {
			out = append(out, ms(r.ended.Sub(r.due)))
		} else {
			out = append(out, penalty)
		}
	}
	return out
}

// throughput is the jobs the server finished per second during the
// closed-loop step.
func (sr *serveRun) throughput() float64 {
	n := 0
	for _, r := range sr.closed {
		if r.done() && !r.ended.Before(sr.closedStart) && !r.ended.After(sr.closedEnd) {
			n++
		}
	}
	return float64(n) / sr.closedEnd.Sub(sr.closedStart).Seconds()
}

// replay re-runs every ReplayEvery-th served job on a one-shot Session
// at the server's operating point; each must match byte for byte.
func (sr *serveRun) replay(ctx context.Context, workers int, every int) error {
	p := nor.DefaultParams()
	ref := session.New(session.Options{Workers: workers, Solver: spice.DenseExact, BaseParams: &p})
	for _, r := range sr.all {
		if !r.done() || every <= 0 || r.index%every != 0 {
			continue
		}
		job, err := r.spec.Job()
		if err != nil {
			return err
		}
		want, err := ref.Evaluate(ctx, job)
		if err != nil {
			return fmt.Errorf("serve: replaying job %s: %w", r.id, err)
		}
		a, errA := canonical(r.result)
		b, errB := canonical(want)
		if errA != nil || errB != nil || a != b {
			sr.mismatches = append(sr.mismatches, fmt.Sprintf("served job %s (%s) differs from its one-shot replay", r.id, r.spec.Kind))
		}
		sr.replayed++
	}
	return nil
}

// layers derives the per-layer metrics of the open-loop step from the
// job timestamps and the /metrics deltas.
func (sr *serveRun) layers() map[string]float64 {
	var submit, queue, exec, lag []float64
	for _, r := range sr.open {
		submit = append(submit, ms(r.submit))
		if r.done() {
			lag = append(lag, ms(r.sent.Sub(r.due)))
			queue = append(queue, ms(r.started.Sub(r.created)))
			exec = append(exec, ms(r.ended.Sub(r.started)))
		}
	}
	m := zeroLayers()
	m0, m1 := sr.m0, sr.m1
	s := subStats(m1.Session.Solver, m0.Session.Solver)
	m["spice.steps"] = float64(s.Steps)
	m["spice.rejected"] = float64(s.Rejected)
	m["spice.iterations"] = float64(s.Iterations)
	m["spice.factorizations"] = float64(s.Factorizations)
	m["golden.hits"] = float64(m1.Session.Golden.Hits - m0.Session.Golden.Hits)
	m["golden.misses"] = float64(m1.Session.Golden.Misses - m0.Session.Golden.Misses)
	m["golden.lookups"] = m["golden.hits"] + m["golden.misses"]
	if n := m["golden.lookups"]; n > 0 {
		m["golden.hit_ratio"] = m["golden.hits"] / n
	}
	m["param.hits"] = float64(m1.Session.Params.Hits - m0.Session.Params.Hits)
	m["param.misses"] = float64(m1.Session.Params.Misses - m0.Session.Params.Misses)
	m["serve.submit_ms.p50"] = quantile(submit, 0.5)
	m["serve.queue_ms.p90"] = quantile(queue, 0.9)
	m["serve.exec_ms.p50"] = quantile(exec, 0.5)
	m["serve.exec_ms.p90"] = quantile(exec, 0.9)
	m["serve.rejected"] = float64(m1.Admission.Rejected - m0.Admission.Rejected)
	m["loadgen.lag_ms.p90"] = quantile(lag, 0.9)
	return m
}

// spans lays each finished open-loop job out as a span tree: the job
// from due to end, with the generator's lag, the submit round trip, the
// queue wait and the execution beneath it.
func (sr *serveRun) spans() []span {
	at := func(t time.Time) int64 { return int64(t.Sub(sr.openStart)) }
	var out []span
	for _, r := range sr.open {
		if !r.done() {
			continue
		}
		root := len(out)
		end := max(at(r.ended), at(r.sent.Add(r.submit)))
		out = append(out,
			span{Name: "job", Unit: r.id, Parent: -1, Start: at(r.due), End: end},
			span{Name: "loadgen.lag", Unit: r.id, Parent: root, Start: at(r.due), End: at(r.sent)},
			span{Name: "serve.submit", Unit: r.id, Parent: root, Start: at(r.sent), End: at(r.sent.Add(r.submit))},
			span{Name: "serve.queue", Unit: r.id, Parent: root, Start: at(r.created), End: at(r.started)},
			span{Name: "serve.exec", Unit: r.id, Parent: root, Start: at(r.started), End: at(r.ended)},
		)
	}
	return out
}

// runServeMixed sets up the server child, drives the load from this
// process, stops the server and replays a sample of the served jobs.
func runServeMixed(ctx context.Context, e *env) (*outcome, error) {
	st, l := e.serveSchedule()
	var (
		hello serverHello
		sr    *serveRun
	)
	cr, err := e.spawn(ctx, task{Kind: "serve", Serve: st}, func(out *bufio.Reader) error {
		line, err := out.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("serve child: %w", err)
		}
		if err := json.Unmarshal(line, &hello); err != nil {
			return fmt.Errorf("serve child: %w", err)
		}
		sr, err = runServeLoad(ctx, hello.URL, runtime.NumCPU(), l)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := sr.replay(ctx, workers, l.ReplayEvery); err != nil {
		return nil, err
	}
	// The server idles through much of the open-loop step, and a CPU
	// that has idled runs slow for a while; only the closed-loop step's
	// probes describe the busy server the end-to-end metrics come from.
	served := prober{samples: cr.rep.ProbeS, at: cr.rep.ProbeAt}
	o := newOutcome()
	o.probes = served.during(sr.closedStart, sr.closedEnd)
	o.problems = sr.mismatches
	if sr.replayed == 0 {
		o.problem("no served job was replayed")
	}
	for _, r := range sr.all {
		o.attempted++
		if !r.done() {
			o.failed++
		}
	}
	openLat, closedLat := latencies(sr.open, l.OpenSeconds), latencies(sr.closed, l.ClosedSeconds)
	o.counts["open.jobs"] = float64(len(sr.open))
	o.counts["closed.jobs"] = float64(len(sr.closed))
	o.counts["replayed"] = float64(sr.replayed)
	o.counts["conns"] = float64(sr.conns)
	o.samples["setup_s"], o.samples["rss_mb"] = hello.SetupS, []float64{cr.rssMB}
	o.samples["open_latency_ms"], o.samples["closed_latency_ms"] = openLat, closedLat
	layers := sr.layers()
	if lag := layers["loadgen.lag_ms.p90"]; lag > 5 {
		o.problem("load generator ran late: lag p90 %.2f ms > 5 ms", lag)
	}
	if e.traced {
		if n := o.attempted; n > 0 {
			layers["go.alloc_mb"] = cr.rep.Counts["go.alloc_mb"] / float64(n)
			layers["go.gc_cycles"] = cr.rep.Counts["go.gc_cycles"] / float64(n)
		}
		o.spans = [][]span{sr.spans()}
		cr.rep.Layers = []map[string]float64{layers}
		o.layers([]*childRun{cr}, nil, nil)
		return o, nil
	}
	// Each job is rescaled by the probes taken while it was in the
	// system (the step's, when none fell inside it), the throughput by
	// the step's.
	slow := slowdown(o.probes)
	jobSlow := make([]float64, len(sr.closed))
	for i, r := range sr.closed {
		jobSlow[i] = slow
		if p := served.during(r.due, r.ended); r.done() && len(p) > 0 {
			jobSlow[i] = slowdown(p)
		}
	}
	closedRef := atReference(closedLat, jobSlow)
	o.set("setup_s", median(hello.SetupS), median(atReference(hello.SetupS, hello.SetupSlow)))
	o.set("latency_p50_ms", quantile(closedLat, 0.5), quantile(closedRef, 0.5))
	o.set("latency_tail_ms", quantile(closedLat, 0.9), quantile(closedRef, 0.9))
	o.set("throughput", sr.throughput(), sr.throughput()*slow)
	o.set("peak_rss_mb", cr.rssMB, cr.rssMB)
	return o, nil
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
