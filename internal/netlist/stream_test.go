package netlist

import (
	"runtime"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// digitizeRecorded digitizes the waveforms Transient recorded for nodes
// at V_th, one trace per node.
func digitizeRecorded(t *testing.T, res *spice.TransientResult, nodes []spice.NodeID, vth float64) []trace.Trace {
	t.Helper()
	out := make([]trace.Trace, len(nodes))
	for i, n := range nodes {
		w, err := res.Waveform(n)
		if err != nil {
			t.Fatal(err)
		}
		d := trace.NewDigitizer(vth)
		for k, tm := range w.Times {
			if err := d.Add(tm, w.Values[k]); err != nil {
				t.Fatal(err)
			}
		}
		if out[i], err = d.Trace(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestGoldenStreamsRecorded checks that digitizing during the transient
// is digitizing what the transient records: under both solver modes,
// the golden of every gate bench and of two netlists equals, bit for
// bit, the digitized waveforms Testbench.Transient records for the same
// run.
func TestGoldenStreamsRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	for _, mode := range []spice.SolverMode{spice.DenseExact, spice.SparseFast} {
		p := fastParams()
		p.Solver = mode
		vth := p.Supply.Vth
		for _, name := range []string{"nor2", "nand2", "nor3"} {
			g, err := gate.Find(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gate.NewAnalog(g, p)
			if err != nil {
				t.Fatal(err)
			}
			inputs, until := tracesFor(t, g.Arity(), 4*g.Arity(), 7)
			got, err := b.Golden(inputs, until)
			if err != nil {
				t.Fatal(err)
			}
			sigs, bps, err := gate.InputSignals(p, inputs)
			if err != nil {
				t.Fatal(err)
			}
			sub := b.Subcircuit()
			out := []spice.NodeID{sub.Out}
			res, err := b.Transient(sigs, bps, until, sub.Initial, out)
			if err != nil {
				t.Fatal(err)
			}
			want := digitizeRecorded(t, res, out, vth)[0]
			if want.NumEvents() == 0 {
				t.Errorf("%s %s: golden has no events (weak test)", name, mode)
			}
			if !equalTraces(got, want) {
				t.Errorf("%s %s: streamed golden %+v, recorded %+v", name, mode, got, want)
			}
		}
		for _, name := range []string{"c17", "rca4"} {
			nl, err := Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBench(nl, p)
			if err != nil {
				t.Fatal(err)
			}
			inputs, until := tracesFor(t, len(nl.Inputs), 3, 5)
			got, err := b.Golden(inputs, until)
			if err != nil {
				t.Fatal(err)
			}
			sigs, bps, err := b.signals(inputs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.Transient(sigs, bps, until, b.init, b.recordIDs)
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			for i, want := range digitizeRecorded(t, res, b.recordIDs, vth) {
				net := b.recorded[i]
				events += want.NumEvents()
				if !equalTraces(got[net], want) {
					t.Errorf("%s %s net %s: streamed golden %+v, recorded %+v", name, mode, net, got[net], want)
				}
			}
			if events == 0 {
				t.Errorf("%s %s: golden has no events (weak test)", name, mode)
			}
		}
	}
}

// TestGoldenMemoryIdleHorizon checks that a golden's memory follows its
// events, not its steps: doubling the idle tail after the last input
// edge, which adds thousands of steps and no event, must add less than
// 64 KiB of allocation. A golden that records every step before
// digitizing adds 16 bytes per step.
func TestGoldenMemoryIdleHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	const idle = 100e-9 // 12,500 steps at the 8 ps MaxStep
	p := fastParams()
	pulse := trace.Trace{Events: []trace.Event{{Time: 100 * waveform.Pico, Value: true}, {Time: 300 * waveform.Pico, Value: false}}}
	b, err := gate.NewAnalog(gate.NOR2, p)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	c17, err := NewBench(nl, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		golden func(until float64) error
	}{
		{"nor2", func(until float64) error {
			_, err := b.Golden([]trace.Trace{pulse, {}}, until)
			return err
		}},
		{"c17", func(until float64) error {
			inputs := make([]trace.Trace, len(nl.Inputs))
			inputs[0] = pulse
			_, err := c17.Golden(inputs, until)
			return err
		}},
	} {
		alloc := func(until float64) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := c.golden(until); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		alloc(300*waveform.Pico + idle) // warm the solver workspace
		one := alloc(300*waveform.Pico + idle)
		two := alloc(300*waveform.Pico + 2*idle)
		t.Logf("%s: %d bytes at the idle horizon, %d at twice it", c.name, one, two)
		if two > one && two-one >= 64<<10 {
			t.Errorf("%s: doubling the idle horizon added %d bytes of allocation (%d → %d), want < 64 KiB", c.name, two-one, one, two)
		}
	}
}
