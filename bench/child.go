package main

// Every repetition of a workload runs in a fresh child process (the
// benchmark binary re-executed with childEnv set), so the process-wide
// symbolic-factorization cache and the Go heap start cold each time and
// the child's peak RSS is the run's own. The parent writes a task on
// the child's stdin; the child answers "ready" once it has read it,
// then one JSON report line.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/serve"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
	"hybriddelay/internal/waveform"
)

// childEnv marks a process as a benchmark child.
const childEnv = "HYBRIDBENCH_CHILD"

// expDMin is the exp channel's pure delay every CLI path uses.
const expDMin = 20 * waveform.Pico

// task is the generated input of one child process.
type task struct {
	Kind    string       `json:"kind"` // gate, circuit, warm or serve
	Traced  bool         `json:"traced"`
	Workers int          `json:"workers"`
	Dir     string       `json:"dir,omitempty"` // golden-store directory
	Gate    string       `json:"gate,omitempty"`
	Circuit string       `json:"circuit,omitempty"`
	Solver  string       `json:"solver"`
	Configs []gen.Config `json:"configs,omitempty"`
	Seeds   []int64      `json:"seeds,omitempty"`
	// warm: repeat the job over the store in Dir for Seconds, at least
	// MinRepeats times.
	Seconds    float64    `json:"seconds,omitempty"`
	MinRepeats int        `json:"min_repeats,omitempty"`
	Serve      *serveTask `json:"serve,omitempty"`
}

// report is a child's answer.
type report struct {
	OpS       []float64            `json:"op_s,omitempty"`     // untraced operations
	TracedS   []float64            `json:"traced_s,omitempty"` // traced operations
	OpSlow    []float64            `json:"op_slow,omitempty"`  // the host's slowdown during each untraced operation
	ProbeS    []float64            `json:"probe_s,omitempty"`  // probes of the host's speed
	ProbeAt   []int64              `json:"probe_at,omitempty"` // when each probe ended [Unix ns]
	Result    string               `json:"result,omitempty"`   // canonical result JSON
	Counts    map[string]float64   `json:"counts,omitempty"`   // work counters of one untraced job
	Layers    []map[string]float64 `json:"layers,omitempty"`   // per traced job
	Spans     [][]span             `json:"spans,omitempty"`    // per traced job
	Problems  []string             `json:"problems,omitempty"` // failed output checks
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// childMain runs one task read from stdin (one JSON line).
func childMain(stdin io.Reader, stdout io.Writer) error {
	br := bufio.NewReader(stdin)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("child: reading task: %w", err)
	}
	var t task
	if err := json.Unmarshal(line, &t); err != nil {
		return fmt.Errorf("child: reading task: %w", err)
	}
	runtime.GOMAXPROCS(t.Workers)
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	if t.Kind == "serve" {
		return serveChild(context.Background(), &t, br, stdout)
	}
	rep, err := runTask(context.Background(), &t)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func runTask(ctx context.Context, t *task) (*report, error) {
	switch t.Kind {
	case "gate":
		return runGateTask(ctx, t)
	case "circuit":
		return runCircuitTask(ctx, t)
	case "warm":
		return runWarmTask(ctx, t)
	}
	return nil, fmt.Errorf("child: unknown task kind %q", t.Kind)
}

// params is the operating point of the task: the calibrated bench under
// the task's solver mode.
func (t *task) params() (nor.Params, error) {
	mode, err := spice.ParseSolverMode(t.Solver)
	p := nor.DefaultParams()
	p.Solver = mode
	return p, err
}

func (t *task) gateSpec() (gateSpec, error) {
	p, err := t.params()
	return gateSpec{Gate: t.Gate, Params: p, Configs: t.Configs, Seeds: t.Seeds, ExpDMin: expDMin}, err
}

// canonical renders a result's deterministic content.
func canonical(res *session.Result) (string, error) {
	b, err := serve.CanonicalResultJSON(res)
	return string(b), err
}

// digest is the SHA-256 of a canonical result.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// jobRun is one job run in a child.
type jobRun struct {
	res    *session.Result
	trace  *jobTrace          // traced runs
	counts map[string]float64 // untraced runs
	wall   time.Duration      // probes excluded
}

// gateOnce runs one gate job as `hybridlab fig7 [-store DIR]` does: a
// fresh Session, a store on dir when dir is set, the store drained and
// closed before the clock stops. traced runs the mirrored pipeline; an
// untraced run probes throughout when pr is set.
func gateOnce(ctx context.Context, j gateSpec, dir string, workers int, traced bool, pr *prober) (*jobRun, error) {
	start := time.Now()
	stop := func() time.Duration { return 0 }
	if pr != nil && !traced {
		stop = pr.every(probePeriod)
	}
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = store.Open(dir); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	jr := &jobRun{}
	var err error
	if traced {
		jr.trace, err = tracedGate(ctx, j, st, workers)
		if err == nil {
			jr.res = jr.trace.result
		}
	} else {
		opt := session.Options{Workers: workers}
		if st != nil {
			opt.Store = st
		}
		s := session.New(opt)
		p := j.Params
		jr.res, err = s.Evaluate(ctx, session.GateJob{
			Gate: j.Gate, Params: &p, Configs: j.Configs, Seeds: j.Seeds,
			ExpDMin: j.ExpDMin, NoCache: st == nil,
		})
		if err == nil {
			err = s.Close()
		}
		if err == nil {
			jr.counts = jobCounts(jr.res)
		}
	}
	if err != nil {
		return nil, err
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return nil, err
		}
		if jr.counts != nil {
			ss := st.Stats()
			jr.counts["store.hits"] = float64(ss.Hits)
			jr.counts["store.writes"] = float64(ss.Writes)
		}
	}
	jr.wall = time.Since(start) - stop()
	return jr, nil
}

// jobCounts are the work counters of an untraced Session job: they must
// repeat exactly between runs and between commits of a speed-only
// change.
func jobCounts(res *session.Result) map[string]float64 {
	s := res.Stats.Solver
	events := 0
	for _, r := range res.Gate {
		events += r.GoldenEv
	}
	if res.Circuit != nil {
		for _, net := range res.Circuit.Nets {
			events += res.Circuit.GoldenEv[net]
		}
	}
	return map[string]float64{
		"spice.steps":           float64(s.Steps),
		"spice.rejected":        float64(s.Rejected),
		"spice.iterations":      float64(s.Iterations),
		"spice.factorizations":  float64(s.Factorizations),
		"sparse.factorizations": float64(s.SparseFactorizations),
		"sparse.fallbacks":      float64(s.SparseFallbacks),
		"golden.misses":         float64(res.Stats.Golden.Misses),
		"golden.disk_hits":      float64(res.Stats.Golden.DiskHits),
		"golden.events":         float64(events),
		"param.misses":          float64(res.Stats.Params.Misses),
	}
}

// runGateTask runs one gate job (a fig7-cold repetition or a fig7-warm
// store fill) on a store in t.Dir.
func runGateTask(ctx context.Context, t *task) (*report, error) {
	j, err := t.gateSpec()
	if err != nil {
		return nil, err
	}
	pr := &prober{}
	pr.take()
	jr, err := gateOnce(ctx, j, t.Dir, t.Workers, t.Traced, pr)
	if err != nil {
		return nil, err
	}
	return singleReport(jr, pr)
}

// singleReport packs the outcome of a one-job child.
func singleReport(jr *jobRun, pr *prober) (*report, error) {
	rep := &report{Attempted: 1, Counts: jr.counts, ProbeS: pr.samples}
	var err error
	if rep.Result, err = canonical(jr.res); err != nil {
		return nil, err
	}
	if jr.trace != nil {
		rep.TracedS = []float64{jr.wall.Seconds()}
		rep.Layers = []map[string]float64{jr.trace.layers}
		rep.Spans = [][]span{jr.trace.spans}
	} else {
		rep.OpS, rep.OpSlow = []float64{jr.wall.Seconds()}, []float64{slowdown(pr.samples)}
	}
	return rep, nil
}

// runCircuitTask runs one circuit job as `hybridlab circuit` does.
func runCircuitTask(ctx context.Context, t *task) (*report, error) {
	p, err := t.params()
	if err != nil {
		return nil, err
	}
	nl, err := netlist.Builtin(t.Circuit)
	if err != nil {
		return nil, err
	}
	if len(t.Configs) != 1 {
		return nil, fmt.Errorf("child: circuit task needs one config, got %d", len(t.Configs))
	}
	pr := &prober{}
	pr.take()
	start := time.Now()
	stop := func() time.Duration { return 0 }
	if !t.Traced {
		stop = pr.every(probePeriod)
	}
	jr := &jobRun{}
	if t.Traced {
		jr.trace, err = tracedCircuit(ctx, circuitSpec{Netlist: nl, Params: p, Config: t.Configs[0], Seeds: t.Seeds, ExpDMin: expDMin}, t.Workers)
		if err == nil {
			jr.res = jr.trace.result
		}
	} else {
		s := session.New(session.Options{Workers: t.Workers})
		jr.res, err = s.Evaluate(ctx, session.CircuitJob{Netlist: nl, Params: &p, Config: t.Configs[0], Seeds: t.Seeds, ExpDMin: expDMin})
		if err == nil {
			jr.counts = jobCounts(jr.res)
		}
	}
	spent := stop()
	if err != nil {
		return nil, err
	}
	jr.wall = time.Since(start) - spent
	return singleReport(jr, pr)
}

// runWarmTask repeats a gate job over the filled store in t.Dir, each
// repeat on a fresh store handle and a fresh Session, as back-to-back
// CLI re-runs with -store do. Every repeat must equal the first and be
// served from disk with zero transient solves. A traced task alternates
// untraced and traced repeats.
func runWarmTask(ctx context.Context, t *task) (*report, error) {
	j, err := t.gateSpec()
	if err != nil {
		return nil, err
	}
	units := len(j.Configs) * len(j.Seeds)
	rep := &report{}
	deadline := time.Now().Add(time.Duration(t.Seconds * float64(time.Second)))
	for n := 0; n < t.MinRepeats || time.Now().Before(deadline); n++ {
		traced := t.Traced && n%2 == 1
		var before float64
		if !traced {
			before = speedProbe()
		}
		jr, err := gateOnce(ctx, j, t.Dir, t.Workers, traced, nil)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.problem("repeat %d: %v", n, err)
			continue
		}
		got, err := canonical(jr.res)
		if err != nil {
			return nil, err
		}
		switch {
		case rep.Result == "":
			rep.Result = got
		case got != rep.Result:
			rep.problem("repeat %d differs from the first repeat", n)
		}
		if traced {
			layers := jr.trace.layers
			rep.TracedS = append(rep.TracedS, jr.wall.Seconds())
			rep.Layers = append(rep.Layers, layers)
			if len(rep.Spans) == 0 {
				rep.Spans = [][]span{jr.trace.spans}
			}
			if dh := layers["golden.disk_hits"]; dh != float64(units) || layers["spice.solves"] != 0 {
				rep.problem("traced repeat %d: %v disk hits and %v solves, want %d and 0", n, dh, layers["spice.solves"], units)
			}
			continue
		}
		after := speedProbe()
		rep.OpS = append(rep.OpS, jr.wall.Seconds())
		rep.OpSlow = append(rep.OpSlow, slowdown([]float64{before, after}))
		rep.ProbeS = append(rep.ProbeS, before, after)
		if rep.Counts == nil {
			rep.Counts = jr.counts
		}
		if jr.counts["golden.disk_hits"] != float64(units) || jr.counts["store.writes"] != 0 {
			rep.problem("repeat %d: %v of %d units from disk and %v store writes, want all and 0",
				n, jr.counts["golden.disk_hits"], units, jr.counts["store.writes"])
		}
	}
	return rep, nil
}
