package main

// table1, fig5, fig6 and fig8 show the session's parametrization: the
// NOR2 point fig7 scores at the same engine flags. Regenerate the text
// golden with:
//
//	go test ./cmd/hybridlab -run TestTable1Golden -update

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/session"
)

// TestTable1FitIsFig7Fit: the fit table1 prints is the hm model a gate
// job scores at the same flags, and its no-δmin fit is the tail-weighted
// fit with the pure delay pinned to zero.
func TestTable1FitIsFig7Fit(t *testing.T) {
	opt := fig7GoldenOpts()
	f, err := sessionFit(opt)
	if err != nil {
		t.Fatal(err)
	}
	s, _, finish, err := opt.open(os.Stderr, session.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer finish()
	cfg := gen.PaperConfigs()[0]
	cfg.Inputs, cfg.Transitions = 2, 4
	res, err := s.Evaluate(context.Background(), session.GateJob{Configs: []gen.Config{cfg}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	hm, ok := res.Models.HM.(gate.NOR2Model)
	if !ok {
		t.Fatalf("hm model is %T, want gate.NOR2Model", res.Models.HM)
	}
	if hm.P != f.HM {
		t.Errorf("table1 fit %s, gate job's hm %s", f.HM, hm.P)
	}

	p, err := opt.benchParams()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := hybrid.FitCharacteristic(f.Meas.Pair, p.Supply,
		&hybrid.FitOptions{DMin: 0, Weights: []float64{3, 1, 3, 3, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if f.HMNoDMin != want {
		t.Errorf("no-δmin fit %+v, want %+v", f.HMNoDMin, want)
	}
}

// TestTable1Golden pins the table1 text at -fast. It prints at two and
// three decimals, far above the last-bit differences of the host's
// math.Exp path.
func TestTable1Golden(t *testing.T) {
	var buf bytes.Buffer
	opt := fig7GoldenOpts()
	opt.out = &buf
	if err := runTable1(opt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "table1_fast.golden")
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
		t.Errorf("table1 -fast output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
