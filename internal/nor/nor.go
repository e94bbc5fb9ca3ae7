// Package nor holds the transistor-level device data of the paper's
// Fig. 1 NOR and its structural variants: the shared testbench
// parameter set (Params) and the Stamp helpers that write each gate's
// devices into a spice circuit. The analog golden bench that drives
// these devices (the Spectre + FreePDK15 stand-in behind Fig. 2 and
// every characteristic delay) lives in internal/gate.
//
// Topology (Fig. 1): the pMOS transistors T1 (gate A) and T2 (gate B) are
// stacked in series from VDD through the internal node N to the output O;
// the nMOS transistors T3 (gate A) and T4 (gate B) pull O to ground in
// parallel. C_N loads the internal node, C_O the output.
package nor

import (
	"fmt"

	"hybriddelay/internal/spice"
	"hybriddelay/internal/waveform"
)

// Params describes the testbench. The default values are calibrated so
// that the SIS delays land in the paper's ballpark (delta_fall 28-40 ps,
// delta_rise 53-56 ps at VDD = 0.8 V) while keeping the structural MIS
// mechanisms (parallel pull-down, serial pull-up, Miller coupling) intact.
type Params struct {
	Supply waveform.Supply

	// Per-transistor device models following Fig. 1: T1 (pMOS, gate A,
	// VDD->N), T2 (pMOS, gate B, N->O), T3 (nMOS, gate A, O->GND),
	// T4 (nMOS, gate B, O->GND).
	T1, T2, T3, T4 spice.MOSParams

	CN float64 // internal-node capacitance [F]
	CO float64 // output load capacitance [F]

	InputRise float64 // input edge duration (20%-80% spans most of it) [s]

	// Transient accuracy knobs.
	MaxStep float64                 // max integrator step [s]
	LTETol  float64                 // step-control voltage tolerance [V]
	Method  spice.IntegrationMethod // charge integration scheme (default trapezoidal)

	// Solver selects the linear-solver strategy of the golden
	// transients (default spice.DenseExact, the bit-identical path).
	// It is part of the parametrization, so golden traces and fitted
	// operating points computed under different solver modes never
	// share cache or store entries.
	Solver spice.SolverMode

	// SparsePivotRel, when positive, tunes the SparseFast symbolic
	// pilot's pivot admissibility threshold (stability vs fill; see
	// spice.TransientOptions.SparsePivotRel). Zero selects the sparse
	// package default; DenseExact ignores it. Like Solver it is part
	// of the parametrization, and it joins the symbolic cache key, so
	// differently-tuned operating points never share an analysis.
	SparsePivotRel float64
}

// DefaultParams returns the calibrated testbench configuration.
func DefaultParams() Params {
	nmos := spice.MOSParams{
		PMOS:   false,
		VT0:    0.2,
		K:      70e-6,
		Lambda: 0.25,
		Cgs:    0.03e-15,
		Cgd:    0.02e-15,
		Cdb:    0.05e-15,
		Gmin:   1e-12,
	}
	pmos := spice.MOSParams{
		PMOS:   true,
		VT0:    0.2,
		K:      68e-6,
		Lambda: 0.25,
		Cgs:    0.02e-15,
		Cgd:    0.008e-15,
		Cdb:    0.05e-15,
		Gmin:   1e-12,
	}
	// T1 is drawn stronger than T2: this shrinks the spurious
	// delta_rise(-inf) vs delta_rise(+inf) gap the ideal series stack
	// would otherwise exhibit, bringing the rising tails to the ~4-7%
	// separation the paper reports for FreePDK15.
	pmosTop := pmos
	pmosTop.K = 95e-6
	return Params{
		Supply:    waveform.DefaultSupply(),
		T1:        pmosTop,
		T2:        pmos,
		T3:        nmos,
		T4:        nmos,
		CN:        0.03e-15,
		CO:        0.66e-15,
		InputRise: 50e-12,
		MaxStep:   4e-12,
		LTETol:    2e-4,
	}
}

// ValidateParams checks the parameter invariants shared by every bench
// topology built from Params (every stamped gate and so every
// netlist-composed circuit). kind names the caller in error messages.
func ValidateParams(kind string, p Params) error {
	if !p.Supply.Valid() {
		return fmt.Errorf("%s: invalid supply %+v", kind, p.Supply)
	}
	if p.CN <= 0 || p.CO <= 0 {
		return fmt.Errorf("%s: capacitances must be positive (CN=%g, CO=%g)", kind, p.CN, p.CO)
	}
	if p.InputRise <= 0 {
		return fmt.Errorf("%s: input rise time must be positive", kind)
	}
	if p.SparsePivotRel < 0 || p.SparsePivotRel >= 1 {
		return fmt.Errorf("%s: sparse pivot threshold must be in [0, 1), got %g", kind, p.SparsePivotRel)
	}
	return nil
}

// SymbolicScope derives a solver's symbolic-cache scope from a bench
// kind and its full parameter set. The scope pins the symbolic pilot
// to one operating point: clones and pool instances of the same bench
// share one analysis, while benches differing in any parameter (and
// therefore in representative matrix values) never race to seed each
// other's static pivot order. Params is a pure value type, so the
// rendered form is deterministic and collision-free per kind.
func SymbolicScope(kind string, p Params) string {
	return fmt.Sprintf("%s|%+v", kind, p)
}

// SISFar is the separation used to approximate Delta = +/- infinity,
// matching the paper's 2e-10 s.
const SISFar = 200e-12

// StampNOR2 writes the Fig. 1 NOR devices into c between existing nodes:
// the pMOS stack VDD -> N -> O, the parallel nMOS pull-downs and the
// internal/output load capacitors. Device names carry the given prefix
// so several instances can share one circuit. Every analog bench, one
// gate or a composed netlist, stamps the NOR through this helper; the
// device order is part of the contract (MNA stamping order affects the
// floating-point sums, which the golden pins fix bit for bit).
func StampNOR2(c *spice.Circuit, prefix string, p Params, vdd, a, b, n, o spice.NodeID) {
	c.AddMOSFET(prefix+"T1", n, a, vdd, p.T1)
	c.AddMOSFET(prefix+"T2", o, b, n, p.T2)
	c.AddMOSFET(prefix+"T3", o, a, spice.Ground, p.T3)
	c.AddMOSFET(prefix+"T4", o, b, spice.Ground, p.T4)
	c.AddCapacitor(prefix+"Cn", n, spice.Ground, p.CN)
	c.AddCapacitor(prefix+"Co", o, spice.Ground, p.CO)
}

// StampNAND2 writes the dual NAND devices into c between existing
// nodes: the serial nMOS stack GND -> M -> O, the parallel pMOS
// pull-ups and the load capacitors, mirroring the NOR topology from the
// same device parameters. Like StampNOR2 it is the single source of the
// topology, and the device order is part of the contract.
func StampNAND2(c *spice.Circuit, prefix string, p Params, vdd, a, b, m, o spice.NodeID) {
	flip := func(mp spice.MOSParams) spice.MOSParams {
		mp.PMOS = !mp.PMOS
		return mp
	}
	// Duality: NOR T1 (pMOS A, VDD->N) -> nMOS A, M->GND (stack bottom);
	// NOR T2 (pMOS B, N->O) -> nMOS B, O->M (stack top); NOR T3/T4
	// (nMOS A/B to GND) -> pMOS A/B pull-ups.
	c.AddMOSFET(prefix+"TNA", m, a, spice.Ground, flip(p.T1))
	c.AddMOSFET(prefix+"TNB", o, b, m, flip(p.T2))
	c.AddMOSFET(prefix+"TPA", o, a, vdd, flip(p.T3))
	c.AddMOSFET(prefix+"TPB", o, b, vdd, flip(p.T4))
	c.AddCapacitor(prefix+"Cm", m, spice.Ground, p.CN)
	c.AddCapacitor(prefix+"Co", o, spice.Ground, p.CO)
}

// StampNOR3 writes the 3-input NOR devices into c between existing
// nodes: the three-deep pMOS stack VDD -> N1 -> N2 -> O, the three
// parallel nMOS pull-downs and the load capacitors. T1 models the top
// stack device, T2 the two lower ones, T3/T4 the pull-downs (the third
// reuses T4). The device order is part of the contract (see StampNOR2).
func StampNOR3(c *spice.Circuit, prefix string, p Params, vdd, a, b, cc, n1, n2, o spice.NodeID) {
	c.AddMOSFET(prefix+"T1", n1, a, vdd, p.T1)
	c.AddMOSFET(prefix+"T2", n2, b, n1, p.T2)
	c.AddMOSFET(prefix+"T3", o, cc, n2, p.T2)
	c.AddMOSFET(prefix+"T4", o, a, spice.Ground, p.T3)
	c.AddMOSFET(prefix+"T5", o, b, spice.Ground, p.T4)
	c.AddMOSFET(prefix+"T6", o, cc, spice.Ground, p.T4)
	c.AddCapacitor(prefix+"Cn1", n1, spice.Ground, p.CN)
	c.AddCapacitor(prefix+"Cn2", n2, spice.Ground, p.CN)
	c.AddCapacitor(prefix+"Co", o, spice.Ground, p.CO)
}
