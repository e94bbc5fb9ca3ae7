package gate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/waveform"
)

// bitsSHA hashes the raw float64 bits of every slice, in order.
func bitsSHA(xs ...[]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range xs {
		for _, x := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinCounters are the solver work counters a pin fixes next to its
// hash.
type pinCounters struct{ Steps, Rejected, Iterations, Factorizations int64 }

// TestProbePins pins the probe outputs of the analog bench at full
// precision, under both solver modes: a SHA-256 over the raw bits of
// each series, and the counters of the fresh bench that ran it.
//   - nor2 pair: the -fast Fig. 2b/2d grid (-60..60 ps, step 15),
//     falling then rising outputs;
//   - nor2 waves: A, B, N and O of Fig. 2a (Delta = 10 ps, falling
//     output) then Fig. 2c (Delta = 40 ps, rising output, V_N = GND);
//   - nand2 characteristic: Measure's six pair delays;
//   - nor3 extension: the nor3 experiment's four probes.
//
// The values were taken from the hand-written per-gate benches this
// bench replaced; any change to the probe arithmetic (edge times,
// breakpoints, start voltages, tails) or the probe order moves them.
func TestProbePins(t *testing.T) {
	if testing.Short() {
		t.Skip("analog transients in -short mode")
	}
	pins := []struct {
		series string
		mode   spice.SolverMode
		sha    string
		counts pinCounters
	}{
		{"nor2 pair", spice.DenseExact, "ebdf0bb258b0d989bf1b6ee595b476eff7e5b63ca272ba1690c791546eff74bb", pinCounters{13328, 57, 24777, 24777}},
		{"nor2 waves", spice.DenseExact, "e17f85398a642efb318a43de539ef53241ca79a01f81b9bf571fce1492a84552", pinCounters{1407, 5, 2657, 2657}},
		{"nand2 characteristic", spice.DenseExact, "7c2d4b4af9482593e18714fbaa17951fddac1ad692d6b40fb47c0f3ff90947d1", pinCounters{4501, 26, 8466, 8466}},
		{"nor3 extension", spice.DenseExact, "8969b9c3188b57a69ac1f20d202a1f6736a464b8fe946d8fead0caa4cb8fbc07", pinCounters{3040, 17, 5669, 5669}},
		{"nor2 pair", spice.SparseFast, "2b165351c03f9cdd0197d396e1ea97c3058b4a7c2a6be1c4ba0f200b46894119", pinCounters{13328, 57, 24777, 24777}},
		{"nor2 waves", spice.SparseFast, "ee72de2a13e579a21e60a1629e619780390d69804f3cc53f7ba4078614c281a1", pinCounters{1407, 5, 2657, 2657}},
		{"nand2 characteristic", spice.SparseFast, "2a702209844f0c3e880d0ad74f17fd8f823aef736e4b79f6e75320349f91fe7c", pinCounters{4501, 26, 8466, 8466}},
		{"nor3 extension", spice.SparseFast, "91201e8f37c329eee26eb889a436f01a323f2699527986a25112c5edf64b4169", pinCounters{3040, 17, 5669, 5669}},
	}
	var grid []float64
	for d := -60.0; d <= 60+1e-9; d += 15 {
		grid = append(grid, waveform.Ps(d))
	}
	for _, pin := range pins {
		p := testBenchParams()
		p.Solver = pin.mode
		newBench := func(g Gate) *Analog {
			b, err := NewAnalog(g, p)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		var (
			b      *Analog
			series [][]float64
		)
		delays := func(probes ...Probe) {
			for _, pr := range probes {
				d, err := b.Delay(pr)
				if err != nil {
					t.Fatal(err)
				}
				series = append(series, []float64{d})
			}
		}
		switch pin.series {
		case "nor2 pair":
			b = newBench(NOR2)
			for _, rising := range []bool{true, false} {
				for _, d := range grid {
					delays(b.Pair(d, rising))
				}
			}
		case "nor2 waves":
			b = newBench(NOR2)
			for _, pr := range []Probe{b.Pair(10e-12, true), b.Pair(40e-12, false)} {
				w, err := b.Waveforms(pr)
				if err != nil {
					t.Fatal(err)
				}
				series = append(series, w.Out.Times, w.In[0].Values, w.In[1].Values, w.Internal[0].Values, w.Out.Values)
			}
		case "nand2 characteristic":
			b = newBench(NAND2)
			m, err := b.Measure()
			if err != nil {
				t.Fatal(err)
			}
			series = append(series, m.Pair.AsSlice())
		case "nor3 extension":
			b = newBench(NOR3)
			vdd, far := p.Supply.VDD, nor.SISFar
			delays(
				Probe{Offsets: []float64{0, 0, 0}, Rising: true, VInt: vdd},
				Probe{Offsets: []float64{0, 0, far}, Rising: true, VInt: vdd},
				Probe{Offsets: []float64{0, far, 2 * far}, Rising: true, VInt: vdd},
				Probe{Offsets: []float64{0, 0, 0}},
			)
		}
		st := b.SolverStats()
		sha, counts := bitsSHA(series...), pinCounters{st.Steps, st.Rejected, st.Iterations, st.Factorizations}
		if sha != pin.sha || counts != pin.counts {
			t.Errorf("%s %s: SHA-256 %s, counters %+v; pinned %s, %+v",
				pin.series, pin.mode, sha, counts, pin.sha, pin.counts)
		}
	}
}
