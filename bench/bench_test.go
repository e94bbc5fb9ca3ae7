package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a workload re-executes itself as a child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			os.Stderr.WriteString("child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var v struct{ Name, Unit, Better string }
	err := json.Unmarshal(b, &v)
	*d = metricDef{v.Name, v.Unit, v.Better}
	return err
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metric
// and workload tables of this package in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, perLayer[i])
		}
	}
}

// runShort runs one workload at the short size and decodes the result
// line, checking every metric line on the way.
func runShort(t *testing.T, workload string, trace string, defs []metricDef) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "3", "-seconds", "0.5", "-trace", trace,
		"-short", "-workdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s -trace %s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) == 4 && f[0] == workload {
			printed[f[1]] = f[3]
		}
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics in the result, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or with unit %q, want %q", workload, d.Name, got.Unit, d.Unit)
		}
		if printed[d.Name] != d.Unit {
			t.Errorf("%s: metric %s not printed with its unit", workload, d.Name)
		}
	}
	return res
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// at the short size: each emits every metric of BENCHMARK.json with its
// unit and passes its own output checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
	}
	for _, w := range bf.Workloads {
		res := runShort(t, w.Name, "0", e2e)
		for _, d := range e2e {
			if v := res.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
		runShort(t, w.Name, "1", bf.PerLayer)
	}
}

// shortEnv is a short-size environment for calling workloads directly.
func shortEnv(t *testing.T) *env {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 5, seconds: 0, short: true, dir: t.TempDir(), exe: exe, log: os.Stderr}
}

// TestTamperedReferenceFails runs fig7-cold against its own digest (it
// must pass) and against a tampered one (it must fail).
func TestTamperedReferenceFails(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e := shortEnv(t)
	o, err := runFig7Cold(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 0 {
		t.Fatalf("untampered run failed its checks: %v", o.problems)
	}
	good := digest(o.result)
	e.fig7Digest = map[int64]string{e.seed: good}
	if o, err = runFig7Cold(ctx, e); err != nil || len(o.problems) != 0 {
		t.Fatalf("run against its own digest: %v %v", err, o.problems)
	}
	e.fig7Digest[e.seed] = strings.Repeat("0", len(good))
	if o, err = runFig7Cold(ctx, e); err != nil {
		t.Fatal(err)
	}
	if len(o.problems) == 0 || !strings.Contains(o.problems[0], "digest") {
		t.Fatalf("tampered digest passed: %v", o.problems)
	}
}

// TestTracedSpanTree checks the traced run's span trees: children lie
// inside their parents and every self time is non-negative, and the
// traced results equal the untraced ones.
func TestTracedSpanTree(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e := shortEnv(t)
	e.traced = true
	for _, run := range []func(context.Context, *env) (*outcome, error){runFig7Cold, runRCA16} {
		o, err := run(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.problems) != 0 {
			t.Fatalf("traced run failed its checks: %v", o.problems)
		}
		if len(o.spans) == 0 {
			t.Fatal("no spans recorded")
		}
		for _, spans := range o.spans {
			if msg := checkTree(spans); msg != "" {
				t.Error(msg)
			}
			units := 0
			for _, s := range spans {
				if s.Name == "unit" {
					units++
				}
			}
			if units == 0 {
				t.Error("no unit spans")
			}
		}
		if c := o.metrics["trace.unit_coverage"]; c < 0.95 {
			t.Errorf("layer spans cover %.3f of a unit", c)
		}
	}
}

// TestCheckTreeRejectsMalformed feeds checkTree broken trees and
// selfTimes overlapping children.
func TestCheckTreeRejectsMalformed(t *testing.T) {
	ok := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 60},
		{Name: "b", Parent: 0, Start: 40, End: 90},
	}
	if msg := checkTree(ok); msg != "" {
		t.Fatal(msg)
	}
	if self := selfTimes(ok); self[0] != 20 || self[1] != 50 || self[2] != 50 {
		t.Fatalf("self times %v, want [20 50 50]", self)
	}
	outside := append([]span(nil), ok...)
	outside[2].End = 120
	if checkTree(outside) == "" {
		t.Error("child outside its parent accepted")
	}
	backwards := append([]span(nil), ok...)
	backwards[1].End = 5
	if checkTree(backwards) == "" {
		t.Error("span ending before it starts accepted")
	}
}
