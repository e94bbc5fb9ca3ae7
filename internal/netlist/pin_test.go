package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/waveform"
)

// waveformSHA hashes the raw float64 bits of the shared time axis and
// of every waveform's samples, in order.
func waveformSHA(ws ...*waveform.Waveform) string {
	h := sha256.New()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	put(ws[0].Times)
	for _, w := range ws {
		put(w.Values)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinCounters are the solver work counters a pin fixes next to the
// waveform hash.
type pinCounters struct{ Steps, Rejected, Iterations, Factorizations int64 }

func countersOf(st spice.SolverStats) pinCounters {
	return pinCounters{st.Steps, st.Rejected, st.Iterations, st.Factorizations}
}

// TestGoldenWaveformPins pins the analog golden waveforms of the NOR2
// gate bench (all four nodes A, B, N, O) and of the c17 netlist at full precision, under both solver
// modes: a SHA-256 over the raw bits of every recorded sample, and the
// solver's work counters. Any change to the arithmetic of a stamp, the
// order of device stamps, the LU or the step control moves them; a
// refactor that claims bit-identity must leave them as they are.
func TestGoldenWaveformPins(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	pins := []struct {
		circuit string
		mode    spice.SolverMode
		sha     string
		counts  pinCounters
	}{
		{"nor2", spice.DenseExact, "39eecbc814b65f65a2e731eef72030f5b3f1f4a621f580e500854d8164a575e3", pinCounters{2954, 44, 6243, 6243}},
		{"nor2", spice.SparseFast, "1ee520ecfb5e49697cefe323598dcd90489b1cba10cce7e81e6c2d9d48622f97", pinCounters{2954, 44, 6243, 6243}},
		{"c17", spice.DenseExact, "7405f0e29c579fc1642634d5903eb476a1af6eef3d3b5f5b7c175c823b08da8e", pinCounters{1366, 2, 2916, 2916}},
		{"c17", spice.SparseFast, "a2aadc09f890f7519fa224a5e3bf7c2ff130becbe4ff8b67266796b906a53e00", pinCounters{1366, 2, 2916, 2916}},
	}
	for _, pin := range pins {
		p := fastParams()
		p.Solver = pin.mode
		var (
			sha    string
			counts pinCounters
		)
		switch pin.circuit {
		case "nor2":
			b, err := gate.NewAnalog(gate.NOR2, p)
			if err != nil {
				t.Fatal(err)
			}
			inputs, until := tracesFor(t, 2, 12, 7)
			sigs, bps, err := gate.InputSignals(p, inputs)
			if err != nil {
				t.Fatal(err)
			}
			sub := b.Subcircuit()
			nodes := append(append(b.Inputs(), sub.Internal...), sub.Out) // A, B, N, O
			res, err := b.Transient(sigs, bps, until, sub.Initial, nodes)
			if err != nil {
				t.Fatal(err)
			}
			ws := make([]*waveform.Waveform, len(nodes))
			for i, n := range nodes {
				if ws[i], err = res.Waveform(n); err != nil {
					t.Fatal(err)
				}
			}
			sha, counts = waveformSHA(ws...), countersOf(b.SolverStats())
		case "c17":
			b, err := NewBench(C17("c17"), p)
			if err != nil {
				t.Fatal(err)
			}
			inputs, until := tracesFor(t, 5, 4, 3)
			sigs, bps, err := b.signals(inputs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.Transient(sigs, bps, until, b.init, b.recordIDs)
			if err != nil {
				t.Fatal(err)
			}
			ws := make([]*waveform.Waveform, len(b.recordIDs))
			for i, id := range b.recordIDs {
				if ws[i], err = res.Waveform(id); err != nil {
					t.Fatal(err)
				}
			}
			sha, counts = waveformSHA(ws...), countersOf(b.SolverStats())
		}
		if sha != pin.sha || counts != pin.counts {
			t.Errorf("%s %s: waveform SHA-256 %s, counters %+v; pinned %s, %+v",
				pin.circuit, pin.mode, sha, counts, pin.sha, pin.counts)
		}
	}
}
