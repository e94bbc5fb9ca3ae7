package spice_test

import (
	"math/rand"
	"slices"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
)

// TestBindingCoverage: on the golden circuits — the NOR2, NAND2 and
// NOR3 benches (as one-instance netlists, which flatten to the same
// circuits) and the c17 and rca4 netlists — every stamp lands inside the
// pattern the devices bound (the gmin shunts on the node diagonals
// aside), and that pattern equals, as a set, the node-block pattern
// derived from topology. The sparse analysis reads the pattern as a
// set, so an extra cell would move sparse-fast pivots and a missing one
// would break the dense replay.
func TestBindingCoverage(t *testing.T) {
	circuits := map[string]*netlist.Netlist{}
	for _, name := range []string{"nor2", "nand2", "nor3"} {
		g, err := gate.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		in := []string{"a", "b", "c"}[:g.Arity()]
		circuits[name] = &netlist.Netlist{
			Name: "single-" + name, Inputs: in,
			Instances: []netlist.Instance{{Name: "g", Gate: name, Inputs: in, Output: "o"}},
		}
	}
	for _, name := range []string{"c17", "rca4"} {
		nl, err := netlist.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits[name] = nl
	}
	const sentinel = 7.25
	for _, name := range []string{"nor2", "nand2", "nor3", "c17", "rca4"} {
		b, err := netlist.NewBench(circuits[name], nor.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		c := b.Circuit()
		bound, strays, err := spice.StampCoverage(c, rand.New(rand.NewSource(1)), sentinel)
		if err != nil {
			t.Fatal(err)
		}
		if len(strays) > 0 {
			t.Errorf("%s: stamps wrote %d cells outside the bound pattern, first at offset %d",
				name, len(strays), strays[0])
		}
		got, want := slices.Sorted(slices.Values(bound)), spice.NodeBlockPattern(c)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: bound pattern (%d cells) differs from the node-block pattern (%d cells)",
				name, len(got), len(want))
		}
	}
}
