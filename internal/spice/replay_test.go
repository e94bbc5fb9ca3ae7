package spice

import (
	"testing"

	"hybriddelay/internal/la"
	"hybriddelay/internal/waveform"
)

// nor2Circuit builds the Fig. 1 NOR gate in the device order of the
// golden bench (supply and input sources, pMOS stack, nMOS pull-downs,
// internal and output loads) with one edge on each input, so a
// transient meets the pivot sequences of a golden run: the operating
// point's and those of the input states it passes through.
func nor2Circuit() (*Circuit, NodeID) {
	c := NewCircuit()
	vdd, a, b := c.Node("vdd"), c.Node("a"), c.Node("b")
	n, o := c.Node("n"), c.Node("o")
	c.AddDCVSource("Vdd", vdd, Ground, 0.8)
	c.AddVSource("Va", a, Ground, waveform.RaisedCosineEdge(100e-12, 50e-12, 0, 0.8))
	c.AddVSource("Vb", b, Ground, waveform.RaisedCosineEdge(400e-12, 50e-12, 0, 0.8))
	nm := MOSParams{VT0: 0.2, K: 70e-6, Lambda: 0.25, Cgs: 0.03e-15, Cgd: 0.02e-15, Cdb: 0.05e-15, Gmin: 1e-12}
	pm := MOSParams{PMOS: true, VT0: 0.2, K: 68e-6, Lambda: 0.25, Cgs: 0.02e-15, Cgd: 0.008e-15, Cdb: 0.05e-15, Gmin: 1e-12}
	top := pm
	top.K = 95e-6
	c.AddMOSFET("T1", n, a, vdd, top)
	c.AddMOSFET("T2", o, b, n, pm)
	c.AddMOSFET("T3", o, a, Ground, nm)
	c.AddMOSFET("T4", o, b, Ground, nm)
	c.AddCapacitor("Cn", n, Ground, 0.03e-15)
	c.AddCapacitor("Co", o, Ground, 0.66e-15)
	return c, o
}

// TestDenseReplayNOR2Stream: the NOR2 Newton stream of a transient,
// from the operating point through both input edges, gives the same
// bits with the dense LU replaying its learned pivot schedules as with
// the plain kernel, at the same work counts; the stream changes its
// pivot sequence along the way and most solves are replayed.
func TestDenseReplayNOR2Stream(t *testing.T) {
	// The breakpoint 10 zs after the first edge clamps one step to that
	// gap, as a step landing just short of an input edge does in a
	// golden run: the capacitor companion conductances C/h then
	// outweigh the unit source-branch entries and win the pivot search.
	opt := TransientOptions{TStart: 0, TStop: 800e-12, MaxStep: 4e-12, Breakpoints: []float64{100e-12, 100e-12 + 1e-17, 400e-12}}
	run := func(replay bool) (*TransientResult, SolverStats, la.ReplayStats) {
		c, _ := nor2Circuit()
		s, err := NewSolver(c)
		if err != nil {
			t.Fatal(err)
		}
		s.ensure()
		if !replay {
			s.lu.SetPattern(0, nil)
		}
		res, err := s.Transient(opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Stats(), s.lu.ReplayStats()
	}
	got, gotStats, rs := run(true)
	want, wantStats, _ := run(false)
	requireBitIdentical(t, got, want, "replayed NOR2")
	if gotStats != wantStats {
		t.Errorf("stats %+v, want %+v", gotStats, wantStats)
	}
	if rs.Learned < 2 || rs.Resumed == 0 {
		t.Errorf("replay stats %+v: want a pivot-sequence change (2+ learned, 1+ resumed)", rs)
	}
	if 10*rs.Replayed < 9*gotStats.Factorizations {
		t.Errorf("replay stats %+v over %d factorizations: want at least 90%% replayed", rs, gotStats.Factorizations)
	}
}
