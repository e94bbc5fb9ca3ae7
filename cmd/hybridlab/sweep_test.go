package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/sweep"
	"hybriddelay/internal/waveform"
)

// fastSweepOpts returns sweep flags sized for test runs.
func fastSweepOpts() sweepOptions {
	return sweepOptions{
		gates: "nor2", vdd: "1", load: "1", modes: "local",
		mu: "200", sigma: "100", trans: 10, seedFlags: seedFlags{reps: 1, seed: 1},
		engineFlags: engineFlags{fast: true, parallel: 2},
	}
}

func TestSweepSpecFromFlags(t *testing.T) {
	o := fastSweepOpts()
	o.gates = "nor2, nand2"
	o.vdd = "1,0.9"
	o.modes = "local,global"
	o.mu = "100,200"
	o.sigma = "50,100"
	spec, err := o.spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Gates) != 2 || len(spec.VDDScale) != 2 {
		t.Fatalf("spec axes: %+v", spec)
	}
	// 2 modes × 2 (mu, sigma) pairs.
	if len(spec.Stimuli) != 4 {
		t.Fatalf("stimuli: %+v", spec.Stimuli)
	}
	if spec.Stimuli[0].Mode != gen.Local || spec.Stimuli[2].Mode != gen.Global {
		t.Errorf("mode order: %+v", spec.Stimuli)
	}
	if spec.Stimuli[0].Mu != waveform.Ps(100) || spec.Stimuli[0].Sigma != waveform.Ps(50) {
		t.Errorf("ps conversion: %+v", spec.Stimuli[0])
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 1 {
		t.Errorf("seeds: %v", spec.Seeds)
	}
	if spec.Bench == nil || spec.Bench.MaxStep != 8e-12 {
		t.Errorf("-fast did not coarsen the bench: %+v", spec.Bench)
	}

	// Sigma broadcasting: one sigma pairs with every mu.
	o = fastSweepOpts()
	o.mu = "100,200,400"
	spec, err = o.spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Stimuli) != 3 || spec.Stimuli[2].Sigma != waveform.Ps(100) {
		t.Errorf("sigma broadcast: %+v", spec.Stimuli)
	}

	// Mismatched pair lengths error.
	o = fastSweepOpts()
	o.mu = "100,200"
	o.sigma = "50,60,70"
	if _, err := o.spec(); err == nil {
		t.Error("mismatched -mu/-sigma lengths accepted")
	}
	o = fastSweepOpts()
	o.modes = "sideways"
	if _, err := o.spec(); err == nil {
		t.Error("unknown mode accepted")
	}
	o = fastSweepOpts()
	o.vdd = "1,x"
	if _, err := o.spec(); err == nil {
		t.Error("malformed -vdd accepted")
	}
}

func TestSweepSpecFromGridFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	grid := `{
		"gates": ["nand2"],
		"vdd_scale": [0.95],
		"stimuli": [{"mode": "GLOBAL", "mu": 500e-12, "sigma": 100e-12, "transitions": 8}],
		"seeds": [42]
	}`
	if err := os.WriteFile(path, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	o := fastSweepOpts()
	o.grid = path
	spec, err := o.spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Gates) != 1 || spec.Gates[0] != "nand2" {
		t.Errorf("grid gates: %v", spec.Gates)
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 42 {
		t.Errorf("grid seeds not honoured: %v", spec.Seeds)
	}

	// A grid file's seed_count/base_seed must win over the flag
	// defaults (the flags configure flag-built specs only).
	countPath := filepath.Join(dir, "grid_count.json")
	gridCount := `{
		"stimuli": [{"mode": "LOCAL", "mu": 100e-12, "sigma": 50e-12, "transitions": 8}],
		"seed_count": 5, "base_seed": 30
	}`
	if err := os.WriteFile(countPath, []byte(gridCount), 0o644); err != nil {
		t.Fatal(err)
	}
	o = fastSweepOpts()
	o.grid = countPath
	spec, err = o.spec()
	if err != nil {
		t.Fatal(err)
	}
	if seeds := spec.SeedList(); len(seeds) != 5 || seeds[0] != 30 {
		t.Errorf("grid seed_count/base_seed overridden by flags: %v", seeds)
	}

	o.grid = filepath.Join(dir, "missing.json")
	if _, err := o.spec(); err == nil {
		t.Error("missing grid file accepted")
	}
}

// TestSweepCommandEndToEnd runs the subcommand against the real analog
// bench and checks both encoders' outputs parse.
func TestSweepCommandEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweep in -short mode")
	}
	o := fastSweepOpts()
	o.gates = "nor2,nand2"
	o.vdd = "1,0.95"
	o.modes = "local,global"
	var stdout, stderr bytes.Buffer
	o.stdout, o.stderr = &stdout, &stderr
	if err := o.run(); err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.String())
	}
	if len(rep.Scenarios) != 8 {
		t.Errorf("report has %d scenarios, want 8 (2 gates × 2 VDD × 2 modes)", len(rep.Scenarios))
	}
	if !strings.Contains(stderr.String(), "scenarios") {
		t.Errorf("progress summary missing from stderr: %s", stderr.String())
	}

	// CSV to -out keeps stdout empty.
	dir := t.TempDir()
	path := filepath.Join(dir, "report.csv")
	o = fastSweepOpts()
	o.csv = true
	o.out = path
	stdout.Reset()
	stderr.Reset()
	o.stdout, o.stderr = &stdout, &stderr
	if err := o.run(); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-out still wrote to stdout: %s", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 { // header + 1 scenario
		t.Errorf("CSV report has %d lines:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "index,gate,") {
		t.Errorf("CSV header malformed: %s", lines[0])
	}
}
