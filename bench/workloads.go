package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/session"
	"hybriddelay/internal/waveform"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

// workloads lists the benchmark's workloads. Each stresses a different
// layer; BENCHMARK.json repeats the names and reasons.
var workloads = []workload{
	{"fig7-cold", "paper Fig. 7 on NOR2 at paper size, dense solver, empty golden store: the dense Newton loop does ~95% of the work", runFig7Cold},
	{"fig7-warm", "the same job re-run over the store it filled: zero transient solves, so prep, store reads, model appliers and scoring", runFig7Warm},
	{"rca16-sparse", "rca16 adder (144 NAND2), sparse solver, no store: supernodal sparse LU, symbolic cache and netlist.Walk", runRCA16},
	{"serve-mixed", "job mix from 8 tenants on the HTTP server, open loop then kept busy, half the unit seeds pre-warmed: admission, queueing, cache hits", runServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is the configuration of one benchmark invocation.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	short   bool   // tiny inputs, for the package's own tests
	dir     string // scratch directory for golden stores
	exe     string // the binary re-executed for every child
	log     io.Writer

	// Output references for paper-size runs, by seed.
	fig7Digest map[int64]string
	fig7CSV    map[int64]string
	rca16Ref   map[int64]*session.Result
}

// outcome is what one workload run measured and checked.
type outcome struct {
	metrics   map[string]float64 // reported: end-to-end timings at the reference speed
	host      map[string]float64 // end-to-end metrics in host time
	probes    []float64          // probes of the host's speed, every child
	counts    map[string]float64
	samples   map[string][]float64
	problems  []string
	attempted int
	failed    int
	spans     [][]span
	result    string // canonical result JSON of the workload's job
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, host: map[string]float64{}, counts: map[string]float64{}, samples: map[string][]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// childRun is one finished child process.
type childRun struct {
	setup float64 // spawn until the child has read its task [s]
	total float64 // spawn until exit [s]
	rssMB float64 // peak resident set
	rep   *report
}

// spawn runs one task in a fresh child process. during, when non-nil,
// runs once the child has read its task, with the child's further
// output; the child's stdin is closed when it returns.
func (e *env) spawn(ctx context.Context, t task, during func(out *bufio.Reader) error) (*childRun, error) {
	t.Workers = workers
	in, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, e.exe)
	cmd.Env = append(os.Environ(), childEnv+"=1", fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.Stderr = e.log
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	_, werr := stdin.Write(append(in, '\n'))
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	setup := time.Since(start)
	var duringErr error
	if during != nil && werr == nil && rerr == nil {
		duringErr = during(br)
	}
	stdin.Close()
	var rep report
	derr := json.NewDecoder(br).Decode(&rep)
	_, _ = io.Copy(io.Discard, br)
	waitErr := cmd.Wait()
	total := time.Since(start)
	switch {
	case duringErr != nil:
		return nil, duringErr
	case waitErr != nil:
		return nil, fmt.Errorf("%s child: %w", t.Kind, waitErr)
	case werr != nil:
		return nil, fmt.Errorf("%s child: writing task: %w", t.Kind, werr)
	case rerr != nil || line != "ready\n":
		return nil, fmt.Errorf("%s child: no ready line (%q, %v)", t.Kind, line, rerr)
	case derr != nil:
		return nil, fmt.Errorf("%s child: reading report: %w", t.Kind, derr)
	}
	cr := &childRun{setup: setup.Seconds(), total: total.Seconds(), rep: &rep}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return cr, nil
}

// storeDir makes a fresh, empty golden-store directory.
func (e *env) storeDir() (string, error) { return os.MkdirTemp(e.dir, "store-*") }

// seeds returns n consecutive job seeds from the benchmark seed, as the
// CLI's -seed S -reps n does.
func (e *env) seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = e.seed + int64(i)
	}
	return out
}

// fig7Task is the paper's Fig. 7 job on NOR2: `hybridlab fig7 -reps 3`.
func (e *env) fig7Task() task {
	configs := gen.PaperConfigs()
	seeds := e.seeds(3)
	if e.short {
		for i := range configs {
			configs[i].Transitions /= 20
		}
		seeds = e.seeds(1)
	}
	return task{Kind: "gate", Gate: "nor2", Solver: "dense-exact", Configs: configs, Seeds: seeds}
}

// units is the number of (config, seed) evaluation units of a task.
func (t task) units() int { return len(t.Configs) * len(t.Seeds) }

// repeat runs tasks in fresh children until the run's time is spent,
// at least minReps times; traced runs alternate untraced and traced
// children so the tracing overhead is measured on the same inputs.
func (e *env) repeat(ctx context.Context, t task, minReps int) ([]*childRun, error) {
	start := time.Now()
	var runs []*childRun
	for n := 0; ; n++ {
		tt := t
		tt.Traced = e.traced && n%2 == 1
		if t.Kind == "gate" {
			dir, err := e.storeDir()
			if err != nil {
				return nil, err
			}
			tt.Dir = dir
		}
		cr, err := e.spawn(ctx, tt, nil)
		if tt.Dir != "" {
			os.RemoveAll(tt.Dir)
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, cr)
		elapsed := time.Since(start).Seconds()
		if len(runs) >= minReps && elapsed+elapsed/float64(len(runs)) > e.seconds {
			return runs, nil
		}
	}
}

// minReps is the fewest repetitions of a cold workload: three untraced
// for a median, or one untraced and one traced.
func (e *env) minReps() int {
	if e.traced {
		return 2
	}
	return 3
}

// coldOutcome turns repeated one-job children into metrics: setup is
// the process start, the operation is the job.
func (e *env) coldOutcome(runs []*childRun, units int) *outcome {
	o := newOutcome()
	var tm timings
	var traced, rss []float64
	for _, r := range runs {
		tm.setup = append(tm.setup, r.setup)
		tm.setupSlow = append(tm.setupSlow, slowdown(r.rep.ProbeS))
		tm.op = append(tm.op, r.rep.OpS...)
		tm.opSlow = append(tm.opSlow, r.rep.OpSlow...)
		traced = append(traced, r.rep.TracedS...)
		rss = append(rss, r.rssMB)
		o.attempted += r.rep.Attempted
		o.failed += r.rep.Failed
		o.problems = append(o.problems, r.rep.Problems...)
		o.spans = append(o.spans, r.rep.Spans...)
		o.probes = append(o.probes, r.rep.ProbeS...)
	}
	o.samples["setup_s"], o.samples["op_s"], o.samples["traced_s"], o.samples["rss_mb"] = tm.setup, tm.op, traced, rss
	if e.traced {
		o.layers(runs, tm.op, traced)
		return o
	}
	o.setBatch(tm, units, median(rss))
	return o
}

// timings are a batch workload's set-ups and operations in host time
// [s], each with the host's slowdown when it ran.
type timings struct {
	setup, setupSlow []float64
	op, opSlow       []float64
}

// atReference rescales host times to the reference speed.
func atReference(xs, slow []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / slow[i]
	}
	return out
}

// setBatch sets the end-to-end metrics of a batch workload: medians and
// p75 of the operations, throughput in evaluation units per second of
// the median operation.
func (o *outcome) setBatch(tm timings, units int, rssMB float64) {
	setup, op := atReference(tm.setup, tm.setupSlow), atReference(tm.op, tm.opSlow)
	o.set("setup_s", median(tm.setup), median(setup))
	o.set("latency_p50_ms", median(tm.op)*1e3, median(op)*1e3)
	o.set("latency_tail_ms", quantile(tm.op, 0.75)*1e3, quantile(op, 0.75)*1e3)
	o.set("throughput", float64(units)/median(tm.op), float64(units)/median(op))
	o.set("peak_rss_mb", rssMB, rssMB)
}

// layers reports the median of every per-layer metric over the traced
// jobs, the tracing overhead, and checks each span tree.
func (o *outcome) layers(runs []*childRun, untraced, traced []float64) {
	var all []map[string]float64
	for _, r := range runs {
		all = append(all, r.rep.Layers...)
	}
	for _, d := range perLayer {
		var xs []float64
		for _, m := range all {
			xs = append(xs, m[d.Name])
		}
		o.metrics[d.Name] = median(xs)
	}
	if len(untraced) > 0 && len(traced) > 0 {
		o.metrics["trace.overhead"] = median(traced)/median(untraced) - 1
	}
	for i, spans := range o.spans {
		if msg := checkTree(spans); msg != "" {
			o.problem("traced job %d: %s", i, msg)
		}
	}
}

// set records an end-to-end metric in host time and at the reference
// speed (see probe.go); the result line reports the second.
func (o *outcome) set(name string, host, atRef float64) {
	for _, d := range endToEnd {
		if d.Name == name {
			o.host[name], o.metrics[name] = host, atRef
			return
		}
	}
	panic("unknown end-to-end metric " + name)
}

// sameResults checks every child produced the same canonical result and
// the same work counters, and returns the result.
func (o *outcome) sameResults(runs []*childRun) string {
	first := runs[0].rep.Result
	var counts map[string]float64
	for i, r := range runs {
		if r.rep.Result != first {
			o.problem("run %d: result differs from run 0 (traced=%v)", i, len(r.rep.TracedS) > 0)
		}
		if r.rep.Counts == nil {
			continue
		}
		if counts == nil {
			counts = r.rep.Counts
			continue
		}
		for _, k := range sortedKeys(counts) {
			if counts[k] != r.rep.Counts[k] {
				o.problem("run %d: count %s = %v, run 0 had %v", i, k, r.rep.Counts[k], counts[k])
			}
		}
	}
	for _, k := range sortedKeys(counts) {
		o.counts[k] = counts[k]
	}
	return first
}

// checkFig7 compares a fig7 result with the committed references.
func (e *env) checkFig7(o *outcome, result string) {
	if want, ok := e.fig7Digest[e.seed]; ok {
		if got := digest(result); got != want {
			o.problem("fig7 result digest %s, reference %s", got, want)
		}
	}
	if want, ok := e.fig7CSV[e.seed]; ok {
		var res session.Result
		if err := json.Unmarshal([]byte(result), &res); err != nil {
			o.problem("fig7 result: %v", err)
			return
		}
		if got := fig7CSV(&res); got != want {
			o.problem("fig7 rows differ from `hybridlab fig7 -csv -reps 3`:\n%s\nwant:\n%s", got, want)
		}
	}
}

// fig7CSV renders gate rows as `hybridlab fig7 -csv` prints them.
func fig7CSV(res *session.Result) string {
	s := "config,inertial,exp-channel,hm,hm-no-dmin\n"
	for _, r := range res.Gate {
		s += fmt.Sprintf("%q", r.Config.Name())
		for _, n := range []string{"inertial", "exp-channel", "hm", "hm-no-dmin"} {
			s += fmt.Sprintf(",%g", r.Normalized[n])
		}
		s += "\n"
	}
	return s
}

func runFig7Cold(ctx context.Context, e *env) (*outcome, error) {
	t := e.fig7Task()
	runs, err := e.repeat(ctx, t, e.minReps())
	if err != nil {
		return nil, err
	}
	o := e.coldOutcome(runs, t.units())
	o.result = o.sameResults(runs)
	e.checkFig7(o, o.result)
	if e.traced {
		o.checkCoverage()
	}
	return o, nil
}

// checkCoverage requires the per-layer spans to account for at least
// 95% of every unit.
func (o *outcome) checkCoverage() {
	if c := o.metrics["trace.unit_coverage"]; c < 0.95 {
		o.problem("layer spans cover only %.1f%% of a unit", 100*c)
	}
}

func runFig7Warm(ctx context.Context, e *env) (*outcome, error) {
	t := e.fig7Task()
	fills, repeats, seconds := 3, 40, e.seconds
	if e.short {
		fills, repeats, seconds = 1, 3, 0
	}
	var (
		tm   timings
		dir  string
		fill []*childRun
	)
	for i := 0; i < fills; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = e.storeDir(); err != nil {
			return nil, err
		}
		ft := t
		ft.Dir = dir
		cr, err := e.spawn(ctx, ft, nil)
		if err != nil {
			return nil, err
		}
		probed := 0.0
		for _, p := range cr.rep.ProbeS {
			probed += p
		}
		tm.setup = append(tm.setup, cr.total-probed)
		tm.setupSlow = append(tm.setupSlow, slowdown(cr.rep.ProbeS))
		fill = append(fill, cr)
	}
	defer os.RemoveAll(dir)
	wt := t
	wt.Kind, wt.Dir, wt.Seconds, wt.MinRepeats, wt.Traced = "warm", dir, seconds, repeats, e.traced
	cr, err := e.spawn(ctx, wt, nil)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	for _, f := range append(fill, cr) {
		o.probes = append(o.probes, f.rep.ProbeS...)
	}
	filled := o.sameResults(fill)
	o.result = filled
	e.checkFig7(o, filled)
	rep := cr.rep
	if rep.Result != filled {
		o.problem("warm re-run differs from the run that filled the store")
	}
	o.problems = append(o.problems, rep.Problems...)
	o.attempted, o.failed, o.spans = rep.Attempted, rep.Failed, rep.Spans
	o.counts = rep.Counts
	o.samples["setup_s"], o.samples["op_s"], o.samples["traced_s"] = tm.setup, rep.OpS, rep.TracedS
	o.samples["rss_mb"] = []float64{cr.rssMB}
	if e.traced {
		o.layers([]*childRun{cr}, rep.OpS, rep.TracedS)
		return o, nil
	}
	tm.op, tm.opSlow = rep.OpS, rep.OpSlow
	o.setBatch(tm, t.units(), cr.rssMB)
	return o, nil
}

func runRCA16(ctx context.Context, e *env) (*outcome, error) {
	name, transitions, seeds := "rca16", 120, e.seeds(3)
	if e.short {
		name, transitions, seeds = "rca2", 30, e.seeds(2)
	}
	nl, err := netlist.Builtin(name)
	if err != nil {
		return nil, err
	}
	cfg := gen.Config{Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Mode: gen.Local,
		Inputs: len(nl.Inputs), Transitions: transitions, Start: 200 * waveform.Pico}
	t := task{Kind: "circuit", Circuit: name, Solver: "sparse-fast", Configs: []gen.Config{cfg}, Seeds: seeds}
	runs, err := e.repeat(ctx, t, e.minReps())
	if err != nil {
		return nil, err
	}
	o := e.coldOutcome(runs, t.units())
	result := o.sameResults(runs)
	o.result = result
	if v := o.counts["sparse.fallbacks"]; v != 0 {
		o.problem("%v sparse factorizations fell back to the dense kernel", v)
	}
	if want, ok := e.rca16Ref[e.seed]; ok {
		var got session.Result
		if err := json.Unmarshal([]byte(result), &got); err != nil {
			return nil, err
		}
		o.problems = append(o.problems, compareCircuit(&got, want, 1e-9)...)
	}
	if e.traced {
		o.checkCoverage()
	}
	return o, nil
}

// compareCircuit checks a circuit result against a reference: golden
// event counts exact, normalized areas within tol relative.
func compareCircuit(got, want *session.Result, tol float64) []string {
	if got.Circuit == nil || want.Circuit == nil {
		return []string{"circuit result missing"}
	}
	g, w := got.Circuit, want.Circuit
	var out []string
	if fmt.Sprint(g.Nets) != fmt.Sprint(w.Nets) || fmt.Sprint(g.Seeds) != fmt.Sprint(w.Seeds) {
		return []string{"circuit nets or seeds differ from the reference"}
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }
	for _, net := range w.Nets {
		if g.GoldenEv[net] != w.GoldenEv[net] {
			out = append(out, fmt.Sprintf("net %s: %d golden events, reference %d", net, g.GoldenEv[net], w.GoldenEv[net]))
		}
		for _, m := range sortedKeys(w.Normalized[net]) {
			if a, b := g.Normalized[net][m], w.Normalized[net][m]; !close(a, b) {
				out = append(out, fmt.Sprintf("net %s model %s: normalized area %v, reference %v", net, m, a, b))
			}
		}
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
