// Command hybridlab regenerates every table and figure of the paper
// "A Simple Hybrid Model for Accurate Delay Modeling of a Multi-Input
// Gate" (DATE 2022) from this repository's implementation.
//
// Usage:
//
//	hybridlab <experiment> [flags]
//
// Experiments:
//
//	fig2-wave   analog NOR waveforms, falling & rising (Fig. 2a/2c)
//	fig2-fall   golden falling MIS sweep delta_fall(Delta) (Fig. 2b)
//	fig2-rise   golden rising MIS sweep delta_rise(Delta) (Fig. 2d)
//	fig4        hybrid mode trajectories (Fig. 4)
//	table1      parametrization of the hybrid model (Table I analogue)
//	fig5        hybrid vs golden falling MIS delays (Fig. 5)
//	fig6        hybrid rising MIS delays for three V_N values (Fig. 6)
//	fig7        deviation-area accuracy comparison (Fig. 7)
//	fig8        falling delays with and without the pure delay (Fig. 8)
//	charlie     closed-form Charlie formulas vs exact solver (§V)
//	all         every experiment at reduced size
//
// table1, fig5, fig6 and fig8 read the session's NOR2 parametrization,
// the model fig7 scores at the same engine flags; -store warm-starts it.
//
// Beyond the experiments, `hybridlab sweep` and `hybridlab circuit`
// run one-shot jobs with their own flags, `hybridlab serve` runs the
// evaluation engine as a long-lived multi-tenant HTTP service, and
// `hybridlab loadgen` benchmarks such a service (BENCH_serve.json).
//
// Engine flags, taken by the experiments and by circuit, sweep, serve
// and loadgen:
//
//	-parallel N evaluation workers (default GOMAXPROCS; 1 = serial)
//	-fast       coarser integrator step; the experiments and circuit
//	            also cap the seeds at 2, fig7 quarters the paper's
//	            transition counts and the MIS sweeps use a 3x coarser grid
//	-store DIR  persistent golden store (repeat runs warm-start from it)
//	-solver M   linear-solver strategy: dense-exact (default,
//	            bit-identical reference) or sparse-fast (structurally
//	            sparse kernel, numerically equivalent, faster)
//
// Seed flags, taken by the experiments and by circuit and sweep:
//
//	-reps N     repetitions (experiments 5, paper uses 20; circuit and
//	            sweep 3)
//	-seed N     base RNG seed (default 1)
//	-seeds L    explicit comma-separated seed list (overrides -reps/-seed)
//
// Experiment flags (accepted after the experiment name):
//
//	-csv        emit CSV instead of aligned tables/plots
//	-trans N    transitions per fig7 run (default from the paper configs)
//	-gate G     registered gate for fig7 (default nor2; see -list-gates)
//
// `hybridlab -list-gates` prints the registered gate names.
package main

import (
	"fmt"
	"io"
	"os"

	"hybriddelay/internal/gate"
)

// options carries the experiment flags.
type options struct {
	engineFlags
	seedFlags
	csv   bool
	trans int
	gate  string

	out io.Writer // experiment output; nil = os.Stdout (tests capture it)
}

// w returns the experiment's output writer.
func (o options) w() io.Writer {
	if o.out != nil {
		return o.out
	}
	return os.Stdout
}

// gateSpec resolves the -gate flag against the registry; an unknown
// name errors with the registered names.
func (o options) gateSpec() (gate.Gate, error) {
	return gate.Find(o.gate)
}

type experiment struct {
	name string
	desc string
	run  func(opt options) error
}

// subcommand is a hybridlab mode with its own flag set (unlike the
// experiments, which share one). All subcommands run
// through subMain, so flag errors, unknown-name errors and exit codes
// are reported identically.
type subcommand struct {
	name string
	desc string
	run  func(args []string) error
}

func subcommands() []subcommand {
	return []subcommand{
		{"sweep", "scenario sweep over the gate registry (own flags)", runSweepCmd},
		{"circuit", "circuit-level accuracy report for a multi-gate netlist (own flags)", runCircuitCmd},
		{"serve", "long-running HTTP job service around one shared session (own flags)", runServeCmd},
		{"loadgen", "drive concurrent mixed clients against a server; writes BENCH_serve.json", runLoadgenCmd},
	}
}

func experiments() []experiment {
	return []experiment{
		{"fig2-wave", "analog NOR waveforms (Fig. 2a/2c)", runFig2Wave},
		{"fig2-fall", "golden falling MIS sweep (Fig. 2b)", runFig2Fall},
		{"fig2-rise", "golden rising MIS sweep (Fig. 2d)", runFig2Rise},
		{"fig4", "hybrid mode trajectories (Fig. 4)", runFig4},
		{"table1", "hybrid model parametrization (Table I)", runTable1},
		{"fig5", "hybrid vs golden falling delays (Fig. 5)", runFig5},
		{"fig6", "hybrid rising delays, three V_N values (Fig. 6)", runFig6},
		{"fig7", "deviation-area accuracy comparison (Fig. 7)", runFig7},
		{"fig8", "falling delays with/without pure delay (Fig. 8)", runFig8},
		{"charlie", "Charlie formulas vs exact solver (§V)", runCharlie},
		{"nand", "NAND duality extension: model vs analog bench", runNAND},
		{"nor3", "3-input NOR extension: model vs analog bench", runNOR3},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-list-gates" || name == "--list-gates" || name == "list-gates" {
		listGates(os.Stdout)
		return
	}
	for _, sc := range subcommands() {
		if sc.name == name {
			subMain(sc.name, func() error { return sc.run(os.Args[2:]) })
			return
		}
	}
	fs := newSubFlags(name)
	var opt options
	var listGatesFlag bool
	opt.engineFlags.register(fs)
	opt.seedFlags.register(fs, 5)
	fs.BoolVar(&opt.csv, "csv", false, "emit CSV")
	fs.IntVar(&opt.trans, "trans", 0, "fig7 transitions per run (0 = paper value)")
	fs.StringVar(&opt.gate, "gate", gate.Default().Name(), "registered gate for fig7 (see -list-gates)")
	fs.BoolVar(&listGatesFlag, "list-gates", false, "list registered gates and exit")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if listGatesFlag {
		listGates(os.Stdout)
		return
	}
	if _, err := opt.gateSpec(); err != nil {
		fmt.Fprintf(os.Stderr, "hybridlab: %v\n", err)
		os.Exit(2)
	}

	if name == "all" {
		opt.fast = true
		for _, e := range experiments() {
			fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
			subMain(e.name, func() error { return e.run(opt) })
			fmt.Println()
		}
		return
	}
	for _, e := range experiments() {
		if e.name == name {
			subMain(e.name, func() error { return e.run(opt) })
			return
		}
	}
	fmt.Fprintf(os.Stderr, "hybridlab: unknown experiment %q\n\n", name)
	usage()
	os.Exit(2)
}

// listGates prints the registered gates in sorted order with arity and
// description columns.
func listGates(w io.Writer) {
	fmt.Fprintln(w, "registered gates (select with -gate):")
	fmt.Fprintf(w, "  %-8s %-8s %s\n", "name", "inputs", "description")
	for _, name := range gate.Names() {
		g, _ := gate.Lookup(name)
		def := ""
		if name == gate.Default().Name() {
			def = " (default)"
		}
		fmt.Fprintf(w, "  %-8s %-8d %s%s\n", name, g.Arity(), g.Describe(), def)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hybridlab <experiment> [flags]")
	fmt.Fprintln(os.Stderr, "\nexperiments:")
	for _, e := range experiments() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run everything at reduced size")
	for _, sc := range subcommands() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", sc.name, sc.desc)
	}
	fmt.Fprintln(os.Stderr, "\nengine flags (experiments, circuit, sweep, serve, loadgen): -parallel N -fast -store DIR -solver M")
	fmt.Fprintln(os.Stderr, "seed flags (experiments, circuit, sweep): -reps N -seed N -seeds L")
	fmt.Fprintln(os.Stderr, "experiment flags: -csv -trans N -gate G -list-gates")
	fmt.Fprintln(os.Stderr, "sweep flags: -gates L -vdd L -load L -modes L -mu L -sigma L -trans N -grid FILE -out FILE -csv")
	fmt.Fprintln(os.Stderr, "circuit flags: -name C | -netlist FILE, -mode M -mu P -sigma P -trans N -out FILE -csv")
	fmt.Fprintln(os.Stderr, "serve flags: -addr A -per-client N -max-active N -backlog N -golden-budget N -param-limit N")
	fmt.Fprintln(os.Stderr, "loadgen flags: -url U -clients N -jobs N -out FILE -verify, plus the serve flags but -addr")
}
