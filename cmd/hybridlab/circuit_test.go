package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddelay/internal/gate"
)

// runCircuit executes the circuit subcommand with captured output.
func runCircuit(t *testing.T, o circuitOptions) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o.stdout, o.stderr = &stdout, &stderr
	err := o.run()
	return stdout.String(), err
}

func TestRunCircuitCmdChain(t *testing.T) {
	if testing.Short() {
		t.Skip("composed analog transients in -short mode")
	}
	out, err := runCircuit(t, circuitOptions{
		name: "nor-invchain", mode: "local", mu: 200, sigma: 100,
		trans: 8, seedFlags: seedFlags{reps: 1, seed: 1}, engineFlags: engineFlags{parallel: 2, fast: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"circuit nor-invchain", "y0", "y3", "TOTAL", "hm"} {
		if !strings.Contains(out, want) {
			t.Errorf("circuit output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCircuitCmdCSVAndOut(t *testing.T) {
	if testing.Short() {
		t.Skip("composed analog transients in -short mode")
	}
	path := filepath.Join(t.TempDir(), "report.csv")
	_, err := runCircuit(t, circuitOptions{
		name: "nor-invchain", mode: "local", mu: 200, sigma: 100,
		trans: 8, seedFlags: seedFlags{reps: 1, seed: 1}, engineFlags: engineFlags{parallel: 2, fast: true},
		csv: true, out: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + 4 nets + TOTAL.
	if len(lines) != 6 {
		t.Errorf("CSV has %d lines, want 6:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "net,golden_events,area_inertial,norm_inertial") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[len(lines)-1], "TOTAL,") {
		t.Errorf("last CSV row = %q, want TOTAL", lines[len(lines)-1])
	}
}

// TestRunCircuitCmdSparseSolver: -solver sparse-fast produces the same
// report shape, and the stderr traffic report proves the sparse kernel
// actually carried the transients.
func TestRunCircuitCmdSparseSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("composed analog transients in -short mode")
	}
	var stdout, stderr bytes.Buffer
	o := circuitOptions{
		name: "nor-invchain", mode: "local", mu: 200, sigma: 100,
		trans: 8, seedFlags: seedFlags{reps: 1, seed: 1},
		engineFlags: engineFlags{parallel: 2, fast: true, solver: "sparse-fast"}, stdout: &stdout, stderr: &stderr,
	}
	if err := o.run(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"circuit nor-invchain", "TOTAL"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("sparse circuit output missing %q:\n%s", want, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "sparse factorizations") {
		t.Errorf("stderr has no sparse solver traffic report:\n%s", stderr.String())
	}

	o.solver = "warp-drive"
	if err := o.run(); err == nil || !strings.Contains(err.Error(), "unknown solver mode") {
		t.Errorf("bad -solver error = %v", err)
	}
}

// TestRunCircuitCmdNetlistFile: -netlist files parse through the
// shared validation, so an unknown gate fails with the registry's
// uniform error listing the registered names.
func TestRunCircuitCmdNetlistFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	js := `{"inputs": ["a", "b"], "instances": [
	  {"name": "g", "gate": "xor9", "inputs": ["a", "b"], "output": "o"}
	]}`
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := runCircuit(t, circuitOptions{netlistPath: path, mode: "local", mu: 200, sigma: 100, trans: 8, seedFlags: seedFlags{reps: 1}})
	if err == nil {
		t.Fatal("unknown gate accepted")
	}
	if !strings.Contains(err.Error(), "unknown gate") {
		t.Errorf("error %q is not the uniform unknown-gate error", err)
	}
	for _, name := range gate.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered gate %q", err, name)
		}
	}
}

func TestRunCircuitCmdUnknownBuiltin(t *testing.T) {
	_, err := runCircuit(t, circuitOptions{name: "bogus", mode: "local", mu: 200, sigma: 100, trans: 8, seedFlags: seedFlags{reps: 1}})
	if err == nil || !strings.Contains(err.Error(), "nor-invchain") {
		t.Errorf("unknown-builtin error %v does not list the shipped circuits", err)
	}
	if err := runCircuitCmd([]string{"-name", "bogus"}); err == nil {
		t.Error("runCircuitCmd accepted an unknown builtin")
	}
	_, err = runCircuit(t, circuitOptions{name: "c17", mode: "sideways", mu: 200, sigma: 100, trans: 8, seedFlags: seedFlags{reps: 1}})
	if err == nil || !strings.Contains(err.Error(), "unknown stimulus mode") {
		t.Errorf("bad -mode error = %v", err)
	}
	_, err = runCircuit(t, circuitOptions{name: "c17", mode: "local", mu: 200, sigma: 100, trans: 8, seedFlags: seedFlags{seeds: "1,x"}})
	if err == nil {
		t.Error("bad -seeds accepted")
	}
	_, err = runCircuit(t, circuitOptions{netlistPath: filepath.Join(t.TempDir(), "missing.json"), mode: "local", mu: 200, sigma: 100, trans: 8, seedFlags: seedFlags{reps: 1}})
	if err == nil {
		t.Error("missing -netlist file accepted")
	}
}

// TestListGatesColumns: the listing is sorted (gate.Names is sorted)
// and carries arity and description columns.
func TestListGatesColumns(t *testing.T) {
	var buf bytes.Buffer
	listGates(&buf)
	out := buf.String()
	if !strings.Contains(out, "description") {
		t.Errorf("-list-gates output missing the description column:\n%s", out)
	}
	for _, name := range gate.Names() {
		g, _ := gate.Lookup(name)
		if !strings.Contains(out, g.Describe()) {
			t.Errorf("-list-gates output missing description of %s:\n%s", name, out)
		}
	}
	// Sorted order: each name appears after the previous one.
	prev := -1
	for _, name := range gate.Names() {
		idx := strings.Index(out, "\n  "+name)
		if idx < 0 || idx < prev {
			t.Errorf("-list-gates output not in sorted order:\n%s", out)
		}
		prev = idx
	}
}
