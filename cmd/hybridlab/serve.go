package main

// `hybridlab serve` runs the session engine as a long-lived
// multi-tenant HTTP service, and `hybridlab loadgen` drives a mixed
// concurrent client load against one (spawning an in-process server by
// default) and writes the BENCH_serve.json latency/throughput report.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hybriddelay/internal/serve"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
)

// Connection timeouts of the HTTP servers against slow or idle clients.
// There is no write timeout, which would cut SSE event streams; net/http
// clears the read deadline once a request's body is read.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer serves h with the connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

// serveOptions carries the `hybridlab serve` flags.
type serveOptions struct {
	addr      string
	parallel  int
	fast      bool
	store     string
	solver    string
	perClient int
	maxActive int
	backlog   int
	golden    int64
	params    int

	stdout io.Writer
	stderr io.Writer

	// Test hooks: ready (when non-nil) receives the bound base URL once
	// the listener is up, and a close of stop shuts the server down the
	// same way a SIGINT would.
	ready func(url string)
	stop  <-chan struct{}
}

// serveFlags registers the flags shared by serve and loadgen (both
// build the same server).
func serveFlags(fs *flag.FlagSet, o *serveOptions) {
	fs.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "evaluation workers of the shared session (1 = serial)")
	fs.BoolVar(&o.fast, "fast", false, "coarser integrator step (quick exploration; changes results)")
	fs.StringVar(&o.store, "store", "", "persistent golden-store directory (created if missing; warm-starts restarts)")
	fs.IntVar(&o.perClient, "per-client", 0, "concurrently running jobs per client (0 = default 2)")
	fs.IntVar(&o.maxActive, "max-active", 0, "concurrently running jobs overall (0 = default 2×per-client)")
	fs.IntVar(&o.backlog, "backlog", 0, "admission backlog capacity before 429 (0 = default 16)")
	fs.Int64Var(&o.golden, "golden-budget", 0, "golden cache memory bound in stored transitions (0 = unbounded)")
	fs.IntVar(&o.params, "param-limit", 0, "operating points retained by the parametrization cache (0 = unbounded)")
}

// buildServer assembles the session and server behind both
// subcommands. The returned cleanup reports store traffic and closes
// it (after the server has been shut down).
func (o *serveOptions) buildServer(stderr io.Writer) (*serve.Server, func(), error) {
	solver, err := spice.ParseSolverMode(o.solver)
	if err != nil {
		return nil, nil, err
	}
	st, finishStore, err := openStore(o.store, stderr)
	if err != nil {
		return nil, nil, err
	}
	p := benchParams(options{fast: o.fast})
	p.Solver = solver
	sopt := session.Options{
		Workers:      o.parallel,
		Solver:       solver,
		BaseParams:   &p,
		GoldenBudget: o.golden,
		ParamLimit:   o.params,
	}
	if st != nil {
		sopt.Store = st
	}
	srv, err := serve.NewServer(serve.Options{
		Session:   session.New(sopt),
		Store:     st,
		MaxActive: o.maxActive,
		PerClient: o.perClient,
		Backlog:   o.backlog,
	})
	if err != nil {
		finishStore()
		return nil, nil, err
	}
	return srv, finishStore, nil
}

// runServeCmd is the `hybridlab serve` entry point: it binds the
// listener, serves until SIGINT/SIGTERM, then drains in-flight jobs
// and flushes the golden store before exiting.
func runServeCmd(args []string) error {
	var o serveOptions
	fs := newSubFlags("serve")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	serveFlags(fs, &o)
	solverFlagVar(fs, &o.solver)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return o.run()
}

// run serves until SIGINT/SIGTERM (or the stop test hook), then drains.
func (o *serveOptions) run() error {
	_, stderr := subIO(o.stdout, o.stderr)

	srv, finishStore, err := o.buildServer(stderr)
	if err != nil {
		return err
	}
	defer finishStore()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "serve: listening on http://%s (POST /v1/jobs, GET /metrics)\n", ln.Addr())
	if o.ready != nil {
		o.ready("http://" + ln.Addr().String())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "serve: %v: draining in-flight jobs\n", sig)
	case <-o.stop:
		fmt.Fprintf(stderr, "serve: stop requested: draining in-flight jobs\n")
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	// Stop accepting connections first, then drain the job table and
	// flush the session's durable state.
	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "serve: listener shutdown: %v\n", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	m := srv.MetricsSnapshot()
	fmt.Fprintf(stderr, "serve: drained; %d jobs admitted, %d rejected\n",
		m.Admission.Admitted, m.Admission.Rejected)
	return nil
}

// loadgenOptions carries the `hybridlab loadgen` flags.
type loadgenOptions struct {
	serveOptions
	url     string
	clients int
	jobs    int
	out     string
	verify  bool
}

// runLoadgenCmd is the `hybridlab loadgen` entry point: it drives N
// concurrent mixed-kind clients against -url (or an in-process server
// when -url is empty), verifies the server's results against a fresh
// one-shot session, and writes the BENCH_serve.json report.
func runLoadgenCmd(args []string) error {
	var o loadgenOptions
	fs := newSubFlags("loadgen")
	fs.StringVar(&o.url, "url", "", "base URL of a running server (empty: spawn an in-process server)")
	fs.IntVar(&o.clients, "clients", 8, "concurrent clients (each its own API key)")
	fs.IntVar(&o.jobs, "jobs", 2, "jobs per client")
	fs.StringVar(&o.out, "out", "BENCH_serve.json", "report output path (- for stdout)")
	fs.BoolVar(&o.verify, "verify", true, "replay every distinct job on a one-shot session and require byte-identical results")
	serveFlags(fs, &o.serveOptions)
	solverFlagVar(fs, &o.solver)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return o.run()
}

// run drives the load and writes the report.
func (o *loadgenOptions) run() error {
	stdout, stderr := subIO(o.stdout, o.stderr)

	baseURL := o.url
	if baseURL == "" {
		srv, finishStore, err := o.buildServer(stderr)
		if err != nil {
			return err
		}
		defer finishStore()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := newHTTPServer(srv)
		go hs.Serve(ln)
		baseURL = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "loadgen: in-process server on %s\n", baseURL)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			hs.Shutdown(sctx)
			srv.Shutdown(sctx)
		}()
	}

	lopt := serve.LoadOptions{Clients: o.clients, JobsPerClient: o.jobs}
	if o.verify {
		// The reference session runs the same operating point but none
		// of the server's caches: a genuinely independent one-shot run.
		p := benchParams(options{fast: o.fast})
		solver, err := spice.ParseSolverMode(o.solver)
		if err != nil {
			return err
		}
		p.Solver = solver
		lopt.Reference = session.New(session.Options{Workers: o.parallel, Solver: solver, BaseParams: &p})
	}
	fmt.Fprintf(stderr, "loadgen: %d clients × %d jobs against %s\n", o.clients, o.jobs, baseURL)
	rep, err := serve.RunLoad(context.Background(), baseURL, lopt)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loadgen: %d jobs in %.2fs (%.1f jobs/s), p50 %.1f ms, p99 %.1f ms, %d failures, %d retries\n",
		rep.Jobs, rep.WallSeconds, rep.JobsPerSec, rep.P50Ms, rep.P99Ms, rep.Failures, rep.Retries429)
	if rep.Verified && !rep.ByteIdentical {
		fmt.Fprintf(stderr, "loadgen: WARNING: server results diverge from the one-shot reference\n")
	}

	var w io.Writer = stdout
	closeReport := func() error { return nil }
	if o.out != "" && o.out != "-" {
		w, closeReport, err = openReport(o.out, stdout)
		if err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		closeReport()
		return err
	}
	if err := closeReport(); err != nil {
		return err
	}
	if rep.Failures > 0 {
		return fmt.Errorf("%d of %d jobs failed", rep.Failures, rep.Failures+rep.Jobs)
	}
	if rep.Verified && !rep.ByteIdentical {
		return fmt.Errorf("server results diverge from the one-shot reference")
	}
	return nil
}
