package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/inertial"
	"hybriddelay/internal/trace"
)

// pinGrid is the time quantum of the pin stimuli: drawing times from a
// coarse grid makes equal times within and across traces common, and
// zero gaps make zero-width pulses.
const pinGrid = 1e-12

// pinEvents draws m alternating events starting from initial. About a
// third of the gaps are zero (a zero-width pulse), a third are a few
// grid steps, and the rest are off-grid.
func pinEvents(rng *rand.Rand, initial bool, m int) []trace.Event {
	ev := make([]trace.Event, m)
	v, tm := initial, 0.0
	for i := range ev {
		switch rng.Intn(3) {
		case 0:
		case 1:
			tm += float64(1+rng.Intn(4)) * pinGrid
		default:
			tm += rng.Float64() * 20 * pinGrid
		}
		v = !v
		ev[i] = trace.Event{Time: tm, Value: v}
	}
	return ev
}

// pinTraces draws k traces of m events each. Every fourth call to the
// generator leaves one trace's events shuffled, as a facade caller may
// pass them.
func pinTraces(rng *rand.Rand, k, m int) []trace.Trace {
	out := make([]trace.Trace, k)
	for i := range out {
		initial := rng.Intn(2) == 1
		out[i] = trace.Trace{Initial: initial, Events: pinEvents(rng, initial, m)}
	}
	if rng.Intn(4) == 0 {
		ev := out[rng.Intn(k)].Events
		rng.Shuffle(len(ev), func(i, j int) { ev[i], ev[j] = ev[j], ev[i] })
	}
	return out
}

// pinWindow picks a scoring window: its ends sit exactly on event times
// half of the time, and otherwise anywhere around the traces.
func pinWindow(rng *rand.Rand, tr []trace.Trace) (t0, t1 float64) {
	pick := func() float64 {
		in := tr[rng.Intn(len(tr))].Events
		if len(in) > 0 && rng.Intn(2) == 0 {
			return in[rng.Intn(len(in))].Time
		}
		return (rng.Float64()*140 - 10) * pinGrid
	}
	t0, t1 = pick(), pick()
	if rng.Intn(8) != 0 && t1 < t0 {
		t0, t1 = t1, t0 // an empty or reversed window now and then
	}
	return t0, t1
}

func pinFloat(h hash.Hash, x float64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
}

func pinTrace(h hash.Hash, tr trace.Trace) {
	b := []byte{0}
	if tr.Initial {
		b[0] = 1
	}
	h.Write(binary.LittleEndian.AppendUint64(b, uint64(len(tr.Events))))
	for _, e := range tr.Events {
		pinFloat(h, e.Time)
		if e.Value {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

func nor(v []bool) bool  { return !(v[0] || v[1]) }
func nand(v []bool) bool { return !(v[0] && v[1]) }

// maj3xor is a 3-input function whose output depends on every input in
// most states, so the order of simultaneous events on different pins
// changes the inertial output.
func maj3xor(v []bool) bool {
	maj := v[0] && v[1] || v[1] && v[2] || v[0] && v[2]
	return maj != (v[0] != v[1] != v[2])
}

// TestScorePins pins deviation scoring and the zero-delay and inertial
// appliers at full precision: the SHA-256 of the raw float64 bits of
// DeviationArea over seeded random trace pairs and windows, and of the
// output events of Combine and inertial.Arcs.Apply. The stimuli make
// equal times within and across traces common, place window ends on
// event times, include zero-width pulses and pulses shorter than an arc
// delay, and leave some traces unsorted. Every result depends on the
// order in which equal-time events are visited, which is what these pins
// hold fixed. Never regenerate a digest to make a change pass.
func TestScorePins(t *testing.T) {
	nor3 := func(v []bool) bool { return !(v[0] || v[1] || v[2]) }
	pins := []struct {
		name  string
		sha   string
		write func(h hash.Hash)
	}{
		{"DeviationArea", "8e29087faccf9d0b5a64285331dbec5de5d584718399e6a7a469794a41102c4a", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(1))
			for range 400 {
				tr := pinTraces(rng, 2, 1+rng.Intn(30))
				t0, t1 := pinWindow(rng, tr)
				pinFloat(h, trace.DeviationArea(tr[0], tr[1], t0, t1))
				pinFloat(h, trace.DeviationArea(tr[1], tr[0], t0, t1))
			}
		}},
		{"Combine", "b16f15747a036ff6d48ccacd31d1085f05c7aa89c4412e09f307c800a1690ff4", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(2))
			for range 150 {
				two := pinTraces(rng, 2, rng.Intn(30))
				pinTrace(h, trace.Combine(nor, two...))
				pinTrace(h, trace.Combine(nand, two...))
				pinTrace(h, trace.NOR2(two[0], two[1]))
				three := pinTraces(rng, 3, rng.Intn(30))
				pinTrace(h, trace.Combine(nor3, three...))
				pinTrace(h, trace.Combine(maj3xor, three...))
			}
		}},
		{"Arcs.Apply", "d0864810af249ffa29478e28120c57e7d5d68fc8794d3b2fee76623a16ab25be", func(h hash.Hash) {
			rng := rand.New(rand.NewSource(3))
			// Distinct per-pin delays of a few grid steps: longer than
			// many input pulses, and different enough that the causing
			// pin of a simultaneous change decides the output time.
			arcs := func(k int) inertial.Arcs {
				a := make(inertial.Arcs, k)
				for i := range a {
					a[i] = inertial.PinArcs{
						Fall: float64(1+rng.Intn(6)) * pinGrid * (1 + 0.1*float64(i)),
						Rise: float64(1+rng.Intn(6)) * pinGrid * (1 + 0.2*float64(i)),
					}
				}
				return a
			}
			for range 150 {
				two := pinTraces(rng, 2, rng.Intn(30))
				a2 := arcs(2)
				pinTrace(h, a2.Apply(nor, two...))
				pinTrace(h, a2.Apply(nand, two...))
				three := pinTraces(rng, 3, rng.Intn(30))
				a3 := arcs(3)
				pinTrace(h, a3.Apply(nor3, three...))
				pinTrace(h, a3.Apply(maj3xor, three...))
			}
		}},
	}
	for _, pin := range pins {
		h := sha256.New()
		pin.write(h)
		if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha {
			t.Errorf("%s: SHA-256 %s, pinned %s", pin.name, got, pin.sha)
		}
	}
}
