package main

// Shared command plumbing: every hybridlab command that runs jobs
// takes the same engine and seed flags and builds its session the same
// way; every subcommand resolves its output streams, reports errors,
// exits and renders progress the same way; and unknown gate / netlist
// names fail with the same uniform errors no matter which command
// looked them up.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
)

// engineFlags are the flags of every command that runs jobs on the
// evaluation engine: the experiments, circuit, sweep, serve and
// loadgen.
type engineFlags struct {
	parallel int
	fast     bool
	store    string // golden-store directory; "" = no persistence
	solver   string
}

// register adds -parallel, -fast, -store and -solver to fs.
func (f *engineFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.parallel, "parallel", runtime.GOMAXPROCS(0), "evaluation workers (1 = serial)")
	fs.BoolVar(&f.fast, "fast", false, "coarser integrator step and smaller runs for quick exploration (changes results)")
	fs.StringVar(&f.store, "store", "", "persistent golden-store directory (created if missing; warm-starts repeat runs)")
	fs.StringVar(&f.solver, "solver", spice.DenseExact.String(),
		"linear-solver strategy: dense-exact (bit-identical reference) or sparse-fast (structurally sparse, numerically equivalent)")
}

// benchParams resolves the bench parameters: the calibrated defaults,
// a coarser integrator step under -fast, and the -solver strategy.
func (f engineFlags) benchParams() (nor.Params, error) {
	solver, err := spice.ParseSolverMode(f.solver)
	if err != nil {
		return nor.Params{}, err
	}
	p := nor.DefaultParams()
	if f.fast {
		p.MaxStep = 8e-12
	}
	p.Solver = solver
	return p, nil
}

// open builds the command's session on -parallel workers at the bench
// parameters, which every job that brings none of its own runs at, and
// mounts the -store directory when one is set (st is nil otherwise).
// opt supplies the remaining session options. finish must run after
// the session's last use: it flushes the store, reports its traffic on
// stderr and closes it, and does nothing without a store.
func (f engineFlags) open(stderr io.Writer, opt session.Options) (s *session.Session, st *store.Store, finish func(), err error) {
	p, err := f.benchParams()
	if err != nil {
		return nil, nil, nil, err
	}
	opt.Workers, opt.Solver, opt.BaseParams = f.parallel, p.Solver, &p
	finish = func() {}
	if f.store != "" {
		if st, err = store.Open(f.store); err != nil {
			return nil, nil, nil, fmt.Errorf("golden store: %w", err)
		}
		opt.Store = st
		finish = func() {
			if err := st.Flush(); err != nil {
				fmt.Fprintf(stderr, "golden store: flush: %v\n", err)
			}
			c := st.Stats()
			fmt.Fprintf(stderr, "golden store %s: %d disk hits, %d misses, %d corrupt, %d writes (%d failed)\n",
				f.store, c.Hits, c.Misses, c.Corrupt, c.Writes, c.WriteErrors)
			if err := st.Close(); err != nil {
				fmt.Fprintf(stderr, "golden store: close: %v\n", err)
			}
		}
	}
	return session.New(opt), st, finish, nil
}

// seedFlags are the -reps, -seed and -seeds flags of the commands that
// evaluate seeded repetitions: the experiments, circuit and sweep.
type seedFlags struct {
	reps  int
	seed  int64
	seeds string
}

// register adds the seed flags to fs with the command's -reps default.
func (f *seedFlags) register(fs *flag.FlagSet, reps int) {
	fs.IntVar(&f.reps, "reps", reps, "repetitions (seeds)")
	fs.Int64Var(&f.seed, "seed", 1, "base RNG seed")
	fs.StringVar(&f.seeds, "seeds", "", "explicit comma-separated seed list (overrides -reps/-seed)")
}

// seedList resolves the evaluation seeds: an explicit -seeds list when
// given, otherwise -reps consecutive seeds starting at -seed (five when
// -reps is not positive, at most two when fast is set).
func (f seedFlags) seedList(fast bool) ([]int64, error) {
	if f.seeds != "" {
		var out []int64
		for _, s := range strings.Split(f.seeds, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -seeds entry %q: %w", s, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
	reps := f.reps
	if reps <= 0 {
		reps = 5
	}
	if fast && reps > 2 {
		reps = 2
	}
	out := make([]int64, reps)
	for i := range out {
		out[i] = f.seed + int64(i)
	}
	return out, nil
}

// subMain runs a subcommand body with the uniform error prefix and
// exit code: "hybridlab <name>: <error>" on stderr, exit 1.
func subMain(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hybridlab %s: %v\n", name, err)
		os.Exit(1)
	}
}

// newSubFlags returns a subcommand's flag set with the uniform
// parse-error behaviour (print usage, exit code 2 — the same contract
// as the experiment flags).
func newSubFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// subIO resolves a subcommand's output streams; tests override them,
// the binary passes nil for the process defaults.
func subIO(stdout, stderr io.Writer) (io.Writer, io.Writer) {
	if stdout == nil {
		stdout = os.Stdout
	}
	if stderr == nil {
		stderr = os.Stderr
	}
	return stdout, stderr
}

// openReport resolves the report destination: the -out path when set,
// otherwise the given default writer. The returned close function is a
// no-op for the default writer.
func openReport(out string, stdout io.Writer) (io.Writer, func() error, error) {
	if out == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// findNetlist resolves a circuit source: a JSON netlist file when path
// is set, otherwise a shipped builtin by name — unknown builtin names
// error with the available names, matching the gate registry's style.
func findNetlist(name, path string) (*netlist.Netlist, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.Parse(f)
	}
	return netlist.Builtin(name)
}

// reportSolver prints the MNA solver traffic of a finished job on
// stderr — how much linear algebra the delay evaluation actually ran,
// and how much of it the sparse path saved. Nothing is printed for a
// job that ran no transients.
func reportSolver(stderr io.Writer, st spice.SolverStats) {
	if st.Steps == 0 && st.Iterations == 0 {
		return
	}
	fmt.Fprintf(stderr, "solver: %d steps (%d rejected), %d Newton iterations, %d factorizations\n",
		st.Steps, st.Rejected, st.Iterations, st.Factorizations)
	if st.SparseFactorizations > 0 || st.LinearReuses > 0 || st.SparseFallbacks > 0 {
		fmt.Fprintf(stderr, "solver: sparse path: %d sparse factorizations, %d dense fallbacks, %d iterations after the first of their solve\n",
			st.SparseFactorizations, st.SparseFallbacks, st.LinearReuses)
	}
	if st.SymbolicHits > 0 || st.SymbolicMisses > 0 {
		fmt.Fprintf(stderr, "solver: symbolic cache: %d hits, %d misses, %d supernodes adopted\n",
			st.SymbolicHits, st.SymbolicMisses, st.Supernodes)
	}
}

// sessionProgress renders the session's unified progress stream as
// stderr ticker lines: the prepare phase counts operating points, the
// evaluation phase counts units under the given verb.
func sessionProgress(stderr io.Writer, evalVerb string) func(session.Progress) {
	return func(p session.Progress) {
		verb := evalVerb
		if p.Phase == session.PhasePrepare {
			verb = "preparing operating points"
		}
		fmt.Fprintf(stderr, "\r%s %d/%d", verb, p.Completed, p.Total)
		if p.Completed == p.Total {
			fmt.Fprintln(stderr)
		}
	}
}
