package main

// Golden-file regression tests for the fig7 text output of every
// registered gate: the exact bytes the CLI emits are pinned under
// testdata/, so a refactor of the pipeline (like PR 2's gate
// generalization) can prove bit-identical output mechanically instead
// of by hand. Regenerate with:
//
//	go test ./cmd/hybridlab -run TestFig7Golden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"hybriddelay/internal/gate"
)

var updateGolden = flag.Bool("update", false, "regenerate golden files")

// timingLine matches the wall-time suffix of the units summary — the
// only non-deterministic bytes of a fig7 run.
var timingLine = regexp.MustCompile(`in \d+\.\d+s`)

// fig7GoldenOpts pins every knob that shapes the output: fixed seed,
// fixed transition count, serial worker pool.
func fig7GoldenOpts() options {
	return options{engineFlags: engineFlags{fast: true, parallel: 1}, seedFlags: seedFlags{reps: 1, seed: 1}, trans: 24}
}

// normalizeFig7 strips the wall-time measurement so the remaining
// bytes are a pure function of the pipeline.
func normalizeFig7(out []byte) []byte {
	return timingLine.ReplaceAll(out, []byte("in X.Xs"))
}

func TestFig7Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy pipeline in -short mode")
	}
	for _, name := range gate.Names() {
		t.Run(name, func(t *testing.T) {
			opt := fig7GoldenOpts()
			opt.gate = name
			var buf bytes.Buffer
			opt.out = &buf
			if err := runFig7(opt); err != nil {
				t.Fatal(err)
			}
			got := normalizeFig7(buf.Bytes())
			path := filepath.Join("testdata", fmt.Sprintf("fig7_%s.golden", name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fig7 -gate %s output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
					name, path, got, want)
			}
		})
	}
}

// TestFig7CSVGolden pins the fig7 CSV of every registered gate. The CSV
// prints each normalized deviation area with %g, the shortest
// representation that round-trips, so a change of one ulp in any
// result fails it.
func TestFig7CSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy pipeline in -short mode")
	}
	for _, name := range gate.Names() {
		t.Run(name, func(t *testing.T) {
			opt := fig7GoldenOpts()
			opt.gate, opt.csv = name, true
			var buf bytes.Buffer
			opt.out = &buf
			if err := runFig7(opt); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", fmt.Sprintf("fig7_%s.csv.golden", name))
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("fig7 -csv -gate %s output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
					name, path, buf.Bytes(), want)
			}
		})
	}
}

// TestFig7GoldenWorkerIndependence: the golden bytes do not depend on
// the worker count — the same property the eval runner guarantees for
// its merged areas, observed at the CLI output layer.
func TestFig7GoldenWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy pipeline in -short mode")
	}
	render := func(workers int) []byte {
		t.Helper()
		opt := fig7GoldenOpts()
		opt.parallel = workers
		var buf bytes.Buffer
		opt.out = &buf
		if err := runFig7(opt); err != nil {
			t.Fatal(err)
		}
		out := normalizeFig7(buf.Bytes())
		// The units line also names the worker count; mask it so only
		// result bytes are compared.
		return regexp.MustCompile(`on \d+ workers`).ReplaceAll(out, []byte("on N workers"))
	}
	if one, four := render(1), render(4); !bytes.Equal(one, four) {
		t.Errorf("fig7 output depends on the worker count:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", one, four)
	}
}
