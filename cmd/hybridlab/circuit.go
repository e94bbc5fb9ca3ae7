package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// circuitOptions carries the `hybridlab circuit` flags.
type circuitOptions struct {
	engineFlags
	seedFlags
	name        string
	netlistPath string
	mode        string
	mu          float64
	sigma       float64
	trans       int
	out         string
	csv         bool

	stdout io.Writer // overridable for tests; nil = os.Stdout
	stderr io.Writer // overridable for tests; nil = os.Stderr
}

// runCircuitCmd is the `hybridlab circuit` entry point: it resolves the
// netlist (a shipped example by -name, or a JSON file via -netlist),
// measures every gate the circuit uses, runs the circuit-level accuracy
// pipeline with progress on stderr, and writes the per-net report to
// -out or stdout (aligned table by default, CSV with -csv).
func runCircuitCmd(args []string) error {
	var o circuitOptions
	fs := newSubFlags("circuit")
	fs.StringVar(&o.name, "name", "nor-invchain",
		fmt.Sprintf("shipped example circuit (%s)", strings.Join(netlist.BuiltinNames(), ", ")))
	fs.StringVar(&o.netlistPath, "netlist", "", "JSON netlist file (overrides -name)")
	fs.StringVar(&o.mode, "mode", "local", "stimulus mode (local, global)")
	fs.Float64Var(&o.mu, "mu", 200, "mean transition gap [ps]")
	fs.Float64Var(&o.sigma, "sigma", 100, "gap standard deviation [ps]")
	fs.IntVar(&o.trans, "trans", 60, "transitions per run")
	fs.StringVar(&o.out, "out", "", "report output path (default stdout)")
	fs.BoolVar(&o.csv, "csv", false, "emit the report as CSV instead of a table")
	o.engineFlags.register(fs)
	o.seedFlags.register(fs, 3)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return o.run()
}

func (o circuitOptions) run() error {
	stdout, stderr := subIO(o.stdout, o.stderr)
	nl, err := findNetlist(o.name, o.netlistPath)
	if err != nil {
		return err
	}
	mode, err := gen.ParseMode(o.mode)
	if err != nil {
		return err
	}
	seeds, err := o.seedList(o.fast)
	if err != nil {
		return err
	}
	stim := sweep.Stimulus{Mode: mode, Mu: waveform.Ps(o.mu), Sigma: waveform.Ps(o.sigma), Transitions: o.trans}
	cfg, err := stim.Config(len(nl.Inputs))
	if err != nil {
		return fmt.Errorf("circuit: stimulus: %w", err)
	}
	s, _, finishStore, err := o.open(stderr, session.Options{})
	if err != nil {
		return err
	}
	defer finishStore()

	fmt.Fprintf(stderr, "circuit %s: %d instances, %d primary inputs, %d recorded nets\n",
		nl.Name, len(nl.Instances), len(nl.Inputs), len(nl.Recorded()))
	fmt.Fprintf(stderr, "measuring and parametrizing gates...\n")
	start := time.Now()
	jres, err := s.Evaluate(context.Background(), session.CircuitJob{
		Netlist: nl, Config: cfg, Seeds: seeds,
		Progress: sessionProgress(stderr, "evaluating seeds"),
	})
	if err != nil {
		return err
	}
	res := *jres.Circuit
	fmt.Fprintf(stderr, "circuit %s: %d seeds in %.1fs (cache: %d hits / %d misses / %d entries)\n",
		nl.Name, len(seeds), time.Since(start).Seconds(),
		jres.Stats.Golden.Hits, jres.Stats.Golden.Misses, jres.Stats.Golden.Entries)
	reportSolver(stderr, jres.Stats.Solver)

	w, closeReport, err := openReport(o.out, stdout)
	if err != nil {
		return err
	}
	if o.csv {
		err = writeCircuitCSV(w, res)
	} else {
		err = writeCircuitTable(w, nl, cfg, res)
	}
	if cerr := closeReport(); err == nil {
		err = cerr
	}
	return err
}

// fmtRatio renders a normalized deviation ratio ("-" when undefined).
func fmtRatio(v float64) string {
	if v != v { // NaN
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

// errWriter accumulates the first write error so table emission can
// report failures (e.g. a full disk behind -out) instead of silently
// truncating.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(ew.w, format, args...)
	}
}

// writeCircuitTable renders the per-net accuracy report as an aligned
// table, normalized per net against the inertial baseline (Fig. 7
// convention lifted to circuits).
func writeCircuitTable(w io.Writer, nl *netlist.Netlist, cfg gen.Config, res eval.CircuitResult) error {
	ew := &errWriter{w: w}
	ew.printf("circuit %s — %s, %d transitions, seeds %v\n",
		nl.Name, cfg.Name(), cfg.Transitions, res.Seeds)
	ew.printf("deviation area normalized to the per-net inertial baseline:\n\n")
	ew.printf("%-12s %10s", "net", "golden-ev")
	for _, model := range eval.ModelNames {
		ew.printf(" %12s", model)
	}
	ew.printf("\n")
	total := 0
	for _, net := range res.Nets {
		total += res.GoldenEv[net]
		ew.printf("%-12s %10d", net, res.GoldenEv[net])
		for _, model := range eval.ModelNames {
			ew.printf(" %12s", fmtRatio(res.Normalized[net][model]))
		}
		ew.printf("\n")
	}
	ew.printf("%-12s %10d", "TOTAL", total)
	for _, model := range eval.ModelNames {
		ew.printf(" %12s", fmtRatio(res.TotalNormalized[model]))
	}
	ew.printf("\n")
	return ew.err
}

// writeCircuitCSV renders the per-net report as CSV (one row per net
// plus a TOTAL row; absolute areas in seconds, normalized ratios as
// NaN-safe columns).
func writeCircuitCSV(w io.Writer, res eval.CircuitResult) error {
	cols := []string{"net", "golden_events"}
	for _, model := range eval.ModelNames {
		cols = append(cols, "area_"+model, "norm_"+model)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	row := func(name string, ev int, area, norm map[string]float64) error {
		fields := []string{name, fmt.Sprintf("%d", ev)}
		for _, model := range eval.ModelNames {
			fields = append(fields,
				fmt.Sprintf("%g", area[model]),
				fmt.Sprintf("%g", norm[model]))
		}
		_, err := fmt.Fprintln(w, strings.Join(fields, ","))
		return err
	}
	total := 0
	for _, net := range res.Nets {
		total += res.GoldenEv[net]
		if err := row(net, res.GoldenEv[net], res.Area[net], res.Normalized[net]); err != nil {
			return err
		}
	}
	return row("TOTAL", total, res.TotalArea, res.TotalNormalized)
}
