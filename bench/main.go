// Command hybridbench is the repository's benchmark: one command that
// measures the paper's Fig. 7 pipeline, warm re-runs, the largest
// shipped circuit and the HTTP server end to end, and — in a separate
// traced run — layer by layer.
//
// Usage (from the repository root, through bench/run.sh, which builds
// the binary first):
//
//	bash bench/run.sh --workload fig7-cold --seed 1 --seconds 10 --trace 0
//
// The parent process generates every workload's inputs from -seed and
// re-executes itself once per repetition, so caches and the Go heap
// start cold each time. It prints every metric as
// "<workload> <metric> <value> <unit>", checks the outputs, and prints
// as its last line one JSON object with the keys correct, attempted,
// failed and metrics. -trace 0 reports the end-to-end metrics of
// untraced runs; -trace 1 reports the per-layer metrics of traced runs.
// The exit code is non-zero if an output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hybridbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo records where a run was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the measured children
	Workers    int    `json:"workers"`
	Commit     string `json:"commit"`
}

// record is one workload run as -out writes it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Short     bool                   `json:"short,omitempty"`
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Host      map[string]float64     `json:"host,omitempty"` // end-to-end metrics in host time
	Slowdown  float64                `json:"slowdown"`       // the run's, from all its probes (probe.go)
	Counts    map[string]float64     `json:"counts,omitempty"`
	Samples   map[string][]float64   `json:"samples,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	Result    string                 `json:"result,omitempty"`
}

// workers is the worker count and GOMAXPROCS of every measured child.
// With both CPUs of a small shared host busy, identical jobs vary by
// ±20% from run to run (their CPU time too); with one busy CPU, by ±6%.
const workers = 1

func environment() envInfo {
	env := envInfo{
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: workers, Workers: workers, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hybridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run (fig7-cold, fig7-warm, rca16-sparse, serve-mixed) or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	out := fs.String("out", "", "write the run records (environment, metrics, counts, samples) as JSON to this file")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for golden stores")
	short := fs.Bool("short", false, "tiny inputs (for the benchmark's own tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "hybridbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "hybridbench: -trace must be 0 or 1\n")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hybridbench:", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "hybridbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "hybridbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	runtime.GOMAXPROCS(runtime.NumCPU()) // the load generator's
	e := &env{
		seed: *seed, seconds: *seconds, traced: *traceMode == 1, short: *short,
		dir: dir, exe: exe, log: stderr,
	}
	if !*short {
		if err := e.loadReferences(); err != nil {
			fmt.Fprintln(stderr, "hybridbench:", err)
			return 1
		}
	}

	final := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	var records []record
	var spans [][]span
	for _, w := range selected {
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		o, err := w.run(ctx, e)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "hybridbench: %s: %v\n", w.name, err)
			return 1
		}
		rec := record{
			Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traceMode, Short: *short,
			Env: environment(), Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
			Metrics: map[string]metricValue{}, Host: o.host, Slowdown: slowdown(o.probes),
			Counts: o.counts, Samples: o.samples, Problems: o.problems, Result: o.result,
		}
		defs := endToEnd
		if e.traced {
			defs = perLayer
		}
		for _, d := range defs {
			v := metricValue{Value: o.metrics[d.Name], Unit: d.Unit}
			rec.Metrics[d.Name] = v
			key := d.Name
			if len(selected) > 1 {
				key = w.name + ":" + d.Name
			}
			final.Metrics[key] = v
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, d.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), d.Unit)
		}
		if !e.traced {
			// The same metrics in host time, and the untraced jobs' work
			// counters; a traced run reports its own among the per-layer
			// metrics.
			for _, d := range endToEnd {
				fmt.Fprintf(stdout, "%s host.%s %s %s\n", w.name, d.Name, strconv.FormatFloat(o.host[d.Name], 'g', -1, 64), d.Unit)
			}
			fmt.Fprintf(stdout, "%s host.slowdown %s ratio\n", w.name, strconv.FormatFloat(rec.Slowdown, 'g', -1, 64))
			for _, k := range sortedKeys(o.counts) {
				fmt.Fprintf(stdout, "%s %s %s count\n", w.name, k, strconv.FormatFloat(o.counts[k], 'g', -1, 64))
			}
		}
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "hybridbench: %s: check failed: %s\n", w.name, p)
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += o.attempted
		final.Failed += o.failed
		records = append(records, rec)
		spans = append(spans, o.spans...)
	}
	if *out != "" {
		if err := writeJSONFile(*out, records); err != nil {
			fmt.Fprintln(stderr, "hybridbench:", err)
			return 1
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = writeChromeTrace(f, spans)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "hybridbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "hybridbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
