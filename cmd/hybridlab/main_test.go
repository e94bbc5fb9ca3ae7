package main

import (
	"bytes"
	"strings"
	"testing"

	"hybriddelay/internal/gate"
)

// Smoke tests: every experiment must run to completion in fast mode.
// Output formatting is checked implicitly (panics/errors fail the test).

func fastOpts() options {
	return options{engineFlags: engineFlags{fast: true}, seedFlags: seedFlags{reps: 1, seed: 1}, trans: 24}
}

func TestRunCharlie(t *testing.T) {
	if err := runCharlie(fastOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig4(t *testing.T) {
	if err := runFig4(fastOpts()); err != nil {
		t.Fatal(err)
	}
	o := fastOpts()
	o.csv = true
	if err := runFig4(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig2Wave(t *testing.T) {
	if err := runFig2Wave(fastOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig2Sweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("analog sweeps in -short mode")
	}
	o := fastOpts()
	o.csv = true
	if err := runFig2Fall(o); err != nil {
		t.Fatal(err)
	}
	if err := runFig2Rise(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable1AndFigs(t *testing.T) {
	if testing.Short() {
		t.Skip("fit experiments in -short mode")
	}
	if err := runTable1(fastOpts()); err != nil {
		t.Fatal(err)
	}
	o := fastOpts()
	o.csv = true
	if err := runFig5(o); err != nil {
		t.Fatal(err)
	}
	if err := runFig6(o); err != nil {
		t.Fatal(err)
	}
	if err := runFig8(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy pipeline in -short mode")
	}
	if err := runFig7(fastOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension benches in -short mode")
	}
	if err := runNAND(fastOpts()); err != nil {
		t.Fatal(err)
	}
	if err := runNOR3(fastOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestPlotHelpers(t *testing.T) {
	s := asciiPlot("t", "x", "y", 40, 10, []series{
		{name: "a", marker: '*', xs: []float64{0, 1, 2}, ys: []float64{0, 1, 0}},
	})
	if s == "" {
		t.Error("empty plot")
	}
	// Degenerate ranges must not panic.
	s = asciiPlot("t", "x", "y", 0, 0, []series{
		{name: "a", marker: '*', xs: []float64{1, 1}, ys: []float64{2, 2}},
	})
	if s == "" {
		t.Error("empty degenerate plot")
	}
	c := csvOut("x", []series{
		{name: "a", xs: []float64{0, 1}, ys: []float64{5, 6}},
		{name: "b", xs: []float64{0, 1}, ys: []float64{7, 8}},
	})
	if c == "" {
		t.Error("empty csv")
	}
	b := barChart("t", []string{"g1"}, []string{"m"}, map[string][]float64{"m": {0.5}}, 10)
	if b == "" {
		t.Error("empty bar chart")
	}
	if csvOut("x", nil) == "" {
		t.Error("empty-series csv should still have a header")
	}
	if barChart("t", []string{"g"}, []string{"m"}, map[string][]float64{"m": {0}}, 0) == "" {
		t.Error("zero-value bars should render")
	}
}

func TestFindAt(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	ys := []float64{10, 11, 12, 13, 14}
	if v := findAt(xs, ys, 0.1); v != 12 {
		t.Errorf("findAt = %g, want 12", v)
	}
}

func TestSeedList(t *testing.T) {
	o := seedFlags{seeds: "3, 5,8", reps: 2, seed: 100}
	got, err := o.seedList(false)
	if err != nil || len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 8 {
		t.Fatalf("explicit list: %v, %v", got, err)
	}
	o = seedFlags{reps: 3, seed: 10}
	if got, _ = o.seedList(false); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("reps expansion: %v", got)
	}
	o = seedFlags{reps: 5, seed: 1}
	if got, _ = o.seedList(true); len(got) != 2 {
		t.Fatalf("fast cap: %v", got)
	}
	o = seedFlags{seeds: "1,x"}
	if _, err = o.seedList(false); err == nil {
		t.Fatal("bad seed entry accepted")
	}
}

func TestGateSpecResolution(t *testing.T) {
	for _, name := range []string{"", "nor2", "nand2", "nor3"} {
		o := options{gate: name}
		g, err := o.gateSpec()
		if err != nil {
			t.Fatalf("gateSpec(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = "nor2"
		}
		if g.Name() != want {
			t.Errorf("gateSpec(%q) = %q", name, g.Name())
		}
	}
	o := options{gate: "xor7"}
	_, err := o.gateSpec()
	if err == nil {
		t.Fatal("unknown gate accepted")
	}
	for _, name := range gate.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-gate error %q does not list %q", err, name)
		}
	}
}

func TestListGates(t *testing.T) {
	var buf bytes.Buffer
	listGates(&buf)
	out := buf.String()
	for _, name := range gate.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("-list-gates output missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "(default)") {
		t.Errorf("-list-gates output does not mark the default:\n%s", out)
	}
}

func TestRunFig7Gates(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy pipeline in -short mode")
	}
	for _, name := range []string{"nand2", "nor3"} {
		o := fastOpts()
		o.gate = name
		if err := runFig7(o); err != nil {
			t.Fatalf("fig7 -gate %s: %v", name, err)
		}
	}
}

func TestRunFig7UnknownGate(t *testing.T) {
	o := fastOpts()
	o.gate = "bogus"
	if err := runFig7(o); err == nil {
		t.Fatal("fig7 with unknown gate did not error")
	}
}
