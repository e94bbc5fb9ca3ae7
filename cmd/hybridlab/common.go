package main

// Shared subcommand plumbing: every hybridlab subcommand resolves its
// output streams, reports errors, exits and renders progress the same
// way, and unknown gate / netlist names fail with the same uniform
// errors no matter which subcommand looked them up.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/store"
)

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

// findGate resolves a -gate flag against the registry; unknown names
// error with the registered names (the registry's uniform error).
func findGate(name string) (gate.Gate, error) {
	return gate.Find(name)
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

// openStore opens the persistent golden store named by a -store flag
// and returns it with a finish function that flushes pending writes,
// reports the store's traffic on stderr and closes it. An empty dir
// means no persistence: a nil store and a no-op finish. The caller
// must only mount the store into session options when it is non-nil.
func openStore(dir string, stderr io.Writer) (*store.Store, func(), error) {
	if dir == "" {
		return nil, func() {}, nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("golden store: %w", err)
	}
	finish := func() {
		if err := st.Flush(); err != nil {
			fmt.Fprintf(stderr, "golden store: flush: %v\n", err)
		}
		s := st.Stats()
		fmt.Fprintf(stderr, "golden store %s: %d disk hits, %d misses, %d corrupt, %d writes (%d failed)\n",
			dir, s.Hits, s.Misses, s.Corrupt, s.Writes, s.WriteErrors)
		if err := st.Close(); err != nil {
			fmt.Fprintf(stderr, "golden store: close: %v\n", err)
		}
	}
	return st, finish, nil
}

// solverFlagVar registers the shared -solver flag on a flag set, so
// every analog subcommand documents the same two spellings.
func solverFlagVar(fs *flag.FlagSet, dst *string) {
	fs.StringVar(dst, "solver", spice.DenseExact.String(),
		"linear-solver strategy: dense-exact (bit-identical reference) or sparse-fast (structurally sparse, numerically equivalent)")
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
		fmt.Fprintf(stderr, "solver: sparse path: %d sparse factorizations, %d dense fallbacks, %d linear restamps skipped\n",
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
