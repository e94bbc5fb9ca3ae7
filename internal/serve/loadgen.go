package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// LoadOptions configures the load-test harness.
type LoadOptions struct {
	// Clients is the number of concurrent clients, each with its own
	// API key (so the admission gate sees distinct tenants). Default 8.
	Clients int
	// JobsPerClient is how many jobs each client submits sequentially.
	// Default 2.
	JobsPerClient int
	// Reference, when non-nil, is a fresh one-shot session the harness
	// replays every distinct spec on, asserting the server's results
	// are byte-identical (canonical JSON, timings and cache counters
	// stripped) to the same jobs run directly — the serving layer must
	// not change a single number.
	Reference *session.Session
}

// LoadReport is the BENCH_serve.json payload.
type LoadReport struct {
	Clients       int     `json:"clients"`
	JobsPerClient int     `json:"jobs_per_client"`
	Jobs          int     `json:"jobs"`        // completed jobs
	Failures      int     `json:"failures"`    // jobs not reaching done
	Retries429    int     `json:"retries_429"` // admission rejections retried
	P50Ms         float64 `json:"p50_ms"`      // submit→done latency percentiles
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	MaxMs         float64 `json:"max_ms"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
	WallSeconds   float64 `json:"wall_seconds"`
	Verified      bool    `json:"verified"`       // reference comparison ran
	ByteIdentical bool    `json:"byte_identical"` // and matched exactly
}

// loadSpecs is the mixed-tenant job mix: two gate flavours, a
// builtin circuit, and a small sweep grid — the three job kinds a
// multi-tenant characterization server interleaves.
func loadSpecs() []JobSpec {
	stim := sweep.Stimulus{Mode: gen.Local, Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Transitions: 2}
	global := stim
	global.Mode = gen.Global
	return []JobSpec{
		{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{stim}, Seeds: []int64{1, 2}},
		{Kind: session.KindGate, Gate: "nor2", Stimuli: []sweep.Stimulus{global}, Seeds: []int64{1}},
		{Kind: session.KindCircuit, Circuit: "nor-invchain", Stimuli: []sweep.Stimulus{stim}, Seeds: []int64{1}},
		{Kind: session.KindSweep, Sweep: &sweep.Spec{
			Gates:   []string{"nor2"},
			Stimuli: []sweep.Stimulus{stim, global},
			Seeds:   []int64{1},
		}},
	}
}

// CanonicalResultJSON projects a result onto its deterministic content
// — the accuracy numbers — stripping everything environmental: wall
// times, cache counters, solver traffic. Two evaluations of the same
// job at the same operating point must agree byte for byte under this
// projection, whether they ran through the server or the one-shot CLI.
// A nil result (a job that never finished) is an error.
func CanonicalResultJSON(res *session.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("serve: no result to project")
	}
	c := *res
	c.Stats = session.Stats{}
	c.Models = nil // not part of the wire form (interface-typed Gate)
	if c.Sweep != nil {
		rep := *c.Sweep
		rep.Scenarios = append([]sweep.ScenarioResult(nil), rep.Scenarios...)
		rep.ClearTimings()
		rep.Cache = eval.CacheStats{}
		for i := range rep.Scenarios {
			// Per-scenario cache accounting depends on how warm the
			// server already was, not on the job's content.
			rep.Scenarios[i].CacheHits = 0
			rep.Scenarios[i].CacheMisses = 0
			rep.Scenarios[i].HitRate = 0
		}
		c.Sweep = &rep
	}
	if c.Circuit != nil {
		cr := *c.Circuit
		cr.Solver = spice.SolverStats{}
		c.Circuit = &cr
	}
	return json.MarshalIndent(&c, "", "  ")
}

// RunLoad drives the mixed-client load against a running server at
// baseURL and assembles the latency/throughput report: client c's j-th
// job is entry (c+j) mod n of the n loadSpecs. ctx aborts the whole run.
func RunLoad(ctx context.Context, baseURL string, opt LoadOptions) (*LoadReport, error) {
	clients := opt.Clients
	if clients <= 0 {
		clients = 8
	}
	perClient := opt.JobsPerClient
	if perClient <= 0 {
		perClient = 2
	}
	specs := loadSpecs()

	type outcome struct {
		latency time.Duration
		retries int
		spec    int
		result  *session.Result
		err     error
	}
	results := make(chan outcome, clients*perClient)
	hc := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			key := fmt.Sprintf("loadgen-%d", c)
			for jn := 0; jn < perClient; jn++ {
				si := (c + jn) % len(specs)
				res, lat, retries, err := runOneJob(ctx, hc, baseURL, key, specs[si])
				results <- outcome{latency: lat, retries: retries, spec: si, result: res, err: err}
			}
		}(c)
	}

	rep := &LoadReport{Clients: clients, JobsPerClient: perClient}
	var (
		lats      []time.Duration
		perSpec   = map[int]*session.Result{}
		totalJobs = clients * perClient
	)
	for i := 0; i < totalJobs; i++ {
		o := <-results
		rep.Retries429 += o.retries
		if o.err != nil {
			rep.Failures++
			continue
		}
		rep.Jobs++
		lats = append(lats, o.latency)
		if perSpec[o.spec] == nil {
			perSpec[o.spec] = o.result
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.JobsPerSec = float64(rep.Jobs) / rep.WallSeconds
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		rep.P50Ms = ms(percentile(lats, 0.50))
		rep.P99Ms = ms(percentile(lats, 0.99))
		rep.MeanMs = ms(sum / time.Duration(len(lats)))
		rep.MaxMs = ms(lats[len(lats)-1])
	}

	if opt.Reference != nil {
		rep.Verified = true
		rep.ByteIdentical = true
		//hybrid:nondet-ok per-spec verification; the verdict is a conjunction over independent comparisons, order cannot change it
		for si, got := range perSpec {
			sjob, err := specs[si].Job()
			if err != nil {
				return nil, fmt.Errorf("loadgen: reference spec %d: %w", si, err)
			}
			want, err := opt.Reference.Evaluate(ctx, sjob)
			if err != nil {
				return nil, fmt.Errorf("loadgen: reference run %d: %w", si, err)
			}
			gotJSON, err := CanonicalResultJSON(got)
			if err != nil {
				return nil, err
			}
			wantJSON, err := CanonicalResultJSON(want)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				rep.ByteIdentical = false
			}
		}
	}
	return rep, nil
}

// percentile reads the p-quantile off a sorted latency slice (nearest
// rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(p*float64(len(sorted)-1)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// poll is the load generator's status poll (and 429 retry) interval.
const poll = 5 * time.Millisecond

// runOneJob submits one spec (retrying 429s), polls to a terminal
// state, and decodes the result. Latency covers submit through
// observed completion.
func runOneJob(ctx context.Context, hc *http.Client, baseURL, key string, spec JobSpec) (*session.Result, time.Duration, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	retries := 0
	var id string
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, 0, retries, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", key)
		resp, err := hc.Do(req)
		if err != nil {
			return nil, 0, retries, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retries++
			select {
			case <-ctx.Done():
				return nil, 0, retries, ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, 0, retries, fmt.Errorf("submit: %s: %s", resp.Status, msg)
		}
		var ack struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			return nil, 0, retries, err
		}
		id = ack.ID
		break
	}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id, nil)
		if err != nil {
			return nil, 0, retries, err
		}
		req.Header.Set("X-API-Key", key)
		resp, err := hc.Do(req)
		if err != nil {
			return nil, 0, retries, err
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, 0, retries, err
		}
		switch st.State {
		case StateDone:
			if st.Result == nil {
				return nil, time.Since(start), retries, fmt.Errorf("job %s done without a result: %s", id, st.Error)
			}
			return st.Result, time.Since(start), retries, nil
		case StateFailed, StateCancelled:
			return nil, time.Since(start), retries, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		select {
		case <-ctx.Done():
			return nil, 0, retries, ctx.Err()
		case <-time.After(poll):
		}
	}
}
