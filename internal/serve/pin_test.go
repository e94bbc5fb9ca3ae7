package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/session"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/waveform"
)

// circuitPinCounters are the solver work counters a circuit pin fixes
// next to the result hash.
type circuitPinCounters struct {
	Steps, Rejected, Iterations, Factorizations, SparseFallbacks int64
}

// TestCircuitResultPins pins circuit evaluations at full precision: the
// SHA-256 of CanonicalResultJSON and the circuit bench's solver
// counters, for c17, rca4 and nor-invchain (over two seeds) under both
// solver modes. Every accuracy number of the result is printed with
// all its digits, so a one-ulp change anywhere between the stamps and
// the deviation scoring moves a hash; a refactor that claims
// bit-identity must leave them as they are.
func TestCircuitResultPins(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	pins := []struct {
		circuit string
		mode    spice.SolverMode
		seeds   []int64
		sha     string
		counts  circuitPinCounters
	}{
		{"c17", spice.DenseExact, []int64{1}, "3f26131f61aed6c6a2c3d06b58f16cdbc08f00729f92a90b8aa44780cbfcc893", circuitPinCounters{8760, 75, 18783, 18783, 0}},
		{"c17", spice.SparseFast, []int64{1}, "1f6522c02c9e0312f0729c106fbfdc87615676aa1ae98c1ec392356f374c9d65", circuitPinCounters{8760, 75, 18783, 18783, 0}},
		{"rca4", spice.DenseExact, []int64{1}, "e3648cc98b320647452b4357f92c54a5f5464db2eb82e7f3b26e440c7e8448a6", circuitPinCounters{9141, 71, 19981, 19981, 0}},
		{"rca4", spice.SparseFast, []int64{1}, "c95990fc8b0ec91527a813fc887272279ca4982e35d1db300f08a44add91bf98", circuitPinCounters{9141, 71, 19981, 19981, 0}},
		{"nor-invchain", spice.DenseExact, []int64{1, 2}, "fbf5b12d6b717fe2a4d1d5e41c4cd00a3788054640ca938f403937054657f2a7", circuitPinCounters{24660, 218, 52930, 52930, 0}},
		{"nor-invchain", spice.SparseFast, []int64{1, 2}, "b1228e11983bb7fee7ba3c05d5597001f588e3fd0b709c101fc331c51b3a3f6a", circuitPinCounters{24660, 218, 52930, 52930, 0}},
	}
	for _, pin := range pins {
		nl, err := netlist.Builtin(pin.circuit)
		if err != nil {
			t.Fatal(err)
		}
		p := fastParams()
		p.Solver = pin.mode
		s := session.New(session.Options{Workers: 1})
		res, err := s.Evaluate(context.Background(), session.CircuitJob{
			Netlist: nl, Params: &p, Seeds: pin.seeds,
			Config: gen.Config{Mu: 200 * waveform.Pico, Sigma: 100 * waveform.Pico, Mode: gen.Local,
				Inputs: len(nl.Inputs), Transitions: 40, Start: 200 * waveform.Pico},
		})
		if err != nil {
			t.Fatalf("%s %s: %v", pin.circuit, pin.mode, err)
		}
		raw, err := CanonicalResultJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		st := res.Circuit.Solver
		sha := hex.EncodeToString(sum[:])
		counts := circuitPinCounters{st.Steps, st.Rejected, st.Iterations, st.Factorizations, st.SparseFallbacks}
		if sha != pin.sha || counts != pin.counts {
			t.Errorf("%s %s seeds %v: result SHA-256 %s, counters %+v; pinned %s, %+v",
				pin.circuit, pin.mode, pin.seeds, sha, counts, pin.sha, pin.counts)
		}
	}
}
