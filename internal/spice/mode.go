package spice

import "fmt"

// SolverMode selects the linear-solver strategy used inside the Newton
// loop of a transient analysis.
//
// DenseExact is the reference: every iteration re-stamps the full
// system and runs the fused dense partial-pivot factor+solve. Its
// results are bit-identical across all entry points and form the
// golden contract of this repository.
//
// SparseFast keeps the Jacobian in packed slots, one per structural
// cell, freezes the linear device stamps (resistors, capacitor
// companion models, sources, MOSFET parasitics and leakage) into a
// base whose Jacobian half is re-stamped only when the step size or
// method changes, re-stamps only the nonlinear MOSFET channels per
// iteration, and factors over a precomputed structural sparsity
// pattern with a static pivot order (internal/la/sparse). It is
// numerically equivalent — solutions agree to solver tolerance, delays
// to well under a picosecond — but NOT bit-identical, so it is opt-in
// everywhere. DC operating points and gmin homotopy stages always use
// the dense path (their pattern and robustness needs differ); if a
// statically scheduled pivot degrades, an iteration transparently
// falls back to the dense solve and the pattern is re-analyzed.
type SolverMode int

const (
	// DenseExact is the default bit-identical dense path.
	DenseExact SolverMode = iota
	// SparseFast is the opt-in structurally sparse path.
	SparseFast
)

// String returns the canonical flag spelling of the mode.
func (m SolverMode) String() string {
	switch m {
	case DenseExact:
		return "dense-exact"
	case SparseFast:
		return "sparse-fast"
	default:
		return fmt.Sprintf("solver-mode(%d)", int(m))
	}
}

// ParseSolverMode parses a -solver flag value. It accepts the
// canonical spellings and their short forms.
func ParseSolverMode(s string) (SolverMode, error) {
	switch s {
	case "", "dense-exact", "dense":
		return DenseExact, nil
	case "sparse-fast", "sparse":
		return SparseFast, nil
	default:
		return DenseExact, fmt.Errorf("spice: unknown solver mode %q (want dense-exact or sparse-fast)", s)
	}
}
