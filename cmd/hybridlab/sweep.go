package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// sweepOptions carries the `hybridlab sweep` flags.
type sweepOptions struct {
	engineFlags
	seedFlags
	gates string
	vdd   string
	load  string
	modes string
	mu    string
	sigma string
	trans int
	grid  string
	out   string
	csv   bool

	stdout io.Writer // overridable for tests; nil = os.Stdout
	stderr io.Writer // overridable for tests; nil = os.Stderr
}

// runSweepCmd is the `hybridlab sweep` entry point: it parses the axis
// flags (or a -grid JSON file), runs the sweep engine with progress on
// stderr, and writes the report (JSON by default, CSV with -csv) to
// -out or stdout.
func runSweepCmd(args []string) error {
	var o sweepOptions
	fs := newSubFlags("sweep")
	fs.StringVar(&o.gates, "gates", "nor2", "comma-separated registered gates (see -list-gates)")
	fs.StringVar(&o.vdd, "vdd", "1", "comma-separated supply-voltage scale factors")
	fs.StringVar(&o.load, "load", "1", "comma-separated output-load scale factors")
	fs.StringVar(&o.modes, "modes", "local,global", "comma-separated stimulus modes (local, global)")
	fs.StringVar(&o.mu, "mu", "200", "comma-separated mean transition gaps [ps], paired with -sigma")
	fs.StringVar(&o.sigma, "sigma", "100", "comma-separated gap standard deviations [ps] (length 1 broadcasts)")
	fs.IntVar(&o.trans, "trans", 100, "transitions per run")
	fs.StringVar(&o.grid, "grid", "", "JSON grid-spec file (overrides every axis flag)")
	fs.StringVar(&o.out, "out", "", "report output path (default stdout)")
	fs.BoolVar(&o.csv, "csv", false, "emit the report as CSV instead of JSON")
	o.engineFlags.register(fs)
	o.seedFlags.register(fs, 3)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return o.run()
}

func (o sweepOptions) run() error {
	stdout, stderr := subIO(o.stdout, o.stderr)
	spec, err := o.spec()
	if err != nil {
		return err
	}
	// Expansion is a microsecond cross product; running it once up
	// front surfaces spec errors (and the grid size) before any analog
	// work starts. The sweep job re-expands internally.
	scenarios, err := sweep.Expand(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sweep: %d scenarios, %d seeds each, %d workers\n",
		len(scenarios), len(spec.SeedList()), o.parallel)

	s, _, finishStore, err := o.open(stderr, session.Options{})
	if err != nil {
		return err
	}
	defer finishStore()
	start := time.Now()
	res, err := s.Evaluate(context.Background(), session.SweepJob{
		Spec:     spec,
		Progress: sessionProgress(stderr, "evaluating units"),
	})
	if err != nil {
		return err
	}
	rep := res.Sweep
	fmt.Fprintf(stderr, "sweep: %d units in %.1fs (cache: %d hits / %d misses / %d entries; operating points: %d fitted / %d reused)\n",
		rep.TotalUnits, time.Since(start).Seconds(),
		rep.Cache.Hits, rep.Cache.Misses, res.Stats.Golden.Entries,
		res.Stats.Params.Misses, res.Stats.Params.Hits)
	reportSolver(stderr, res.Stats.Solver)

	w, closeReport, err := openReport(o.out, stdout)
	if err != nil {
		return err
	}
	if o.csv {
		err = rep.WriteCSV(w)
	} else {
		err = rep.WriteJSON(w)
	}
	if cerr := closeReport(); err == nil {
		err = cerr
	}
	return err
}

// spec assembles the sweep.Spec from the -grid file or the axis flags.
func (o sweepOptions) spec() (sweep.Spec, error) {
	var spec sweep.Spec
	if o.grid != "" {
		f, err := os.Open(o.grid)
		if err != nil {
			return sweep.Spec{}, err
		}
		defer f.Close()
		if spec, err = sweep.ParseSpec(f); err != nil {
			return sweep.Spec{}, err
		}
	} else {
		gates := splitList(o.gates)
		if len(gates) == 0 {
			return sweep.Spec{}, fmt.Errorf("sweep: -gates is empty")
		}
		vdds, err := parseFloats(o.vdd, "-vdd")
		if err != nil {
			return sweep.Spec{}, err
		}
		loads, err := parseFloats(o.load, "-load")
		if err != nil {
			return sweep.Spec{}, err
		}
		mus, err := parseFloats(o.mu, "-mu")
		if err != nil {
			return sweep.Spec{}, err
		}
		sigmas, err := parseFloats(o.sigma, "-sigma")
		if err != nil {
			return sweep.Spec{}, err
		}
		if len(sigmas) == 1 && len(mus) > 1 {
			for len(sigmas) < len(mus) {
				sigmas = append(sigmas, sigmas[0])
			}
		}
		if len(sigmas) != len(mus) {
			return sweep.Spec{}, fmt.Errorf("sweep: -mu has %d entries but -sigma has %d (they pair up)", len(mus), len(sigmas))
		}
		var stimuli []sweep.Stimulus
		for _, modeName := range splitList(o.modes) {
			mode, err := gen.ParseMode(modeName)
			if err != nil {
				return sweep.Spec{}, err
			}
			for i := range mus {
				stimuli = append(stimuli, sweep.Stimulus{
					Mode:        mode,
					Mu:          waveform.Ps(mus[i]),
					Sigma:       waveform.Ps(sigmas[i]),
					Transitions: o.trans,
				})
			}
		}
		spec = sweep.Spec{Gates: gates, VDDScale: vdds, LoadScale: loads, Stimuli: stimuli}
	}
	// Seed flags apply only to flag-built specs: a grid file owns its
	// seed configuration (explicit seeds, or seed_count/base_seed,
	// which Spec.SeedList resolves).
	if o.grid == "" {
		seeds, err := o.seedList(false)
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Seeds = seeds
	}
	// -fast and -solver shape the bench every scenario scales; a grid
	// file carries none (Spec.Bench is not part of its JSON).
	p, err := o.benchParams()
	if err != nil {
		return sweep.Spec{}, err
	}
	spec.Bench = &p
	return spec, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseFloats parses a comma-separated float list flag.
func parseFloats(s, flagName string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad %s entry %q: %w", flagName, f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: %s is empty", flagName)
	}
	return out, nil
}
