package trace

// Fuzz target for the digitization boundary between the analog and
// digital worlds: arbitrary sample vectors either fail waveform
// validation with an error (non-monotonic timestamps, NaN/Inf samples)
// or digitize into a trace that satisfies every Trace invariant. No
// input may panic.

import (
	"encoding/binary"
	"math"
	"testing"

	"hybriddelay/internal/waveform"
)

func fuzzFloats(raw []byte, max int) []float64 {
	var out []float64
	for i := 0; i+8 <= len(raw) && len(out) < max; i += 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
	}
	return out
}

func FuzzDigitize(f *testing.F) {
	add := func(vth float64, vals ...float64) {
		raw := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw, vth)
	}
	add(0.4, 0, 1e-12, 2e-12, 3e-12, 0.8, 0.8, 0.0, 0.8) // one dip
	add(0.4, 0, 1e-12, 0.0, 0.8)                         // single crossing
	add(0.4, 1e-12, 0, 0.8, 0.0)                         // non-monotonic times
	add(0.4, 0, 1e-12, math.NaN(), 0.8)                  // NaN sample
	add(0.4, 0, math.Inf(1), 0.8, 0.0)                   // Inf time
	add(math.NaN(), 0, 1e-12, 0.0, 0.8)                  // NaN threshold
	add(1e-300, -1.87e78, -2.23e-134, -1, 2e-300)        // interpolation rounds past the interval end
	add(0.5, 0, 1, 2, 0.3, 0.5, 0.7)                     // rising through a sample on the level
	add(0.5, 0, 1, 2, 0.7, 0.5, 0.7)                     // touch from above: a zero-width dip
	add(0.4)                                             // no samples
	add(-1e308, 0, 1, 1e308, -1.7e308)                   // the sample-to-level distance overflows
	f.Fuzz(func(t *testing.T, raw []byte, vth float64) {
		vals := fuzzFloats(raw, 64)
		n := len(vals) / 2
		times, values := vals[:n], vals[n:2*n]
		// Fed one sample at a time, the digitizer rejects exactly what
		// NewWaveform rejects, and matches batch digitization bit for
		// bit where both accept.
		tr, serr := stream(times, values, vth)
		w, err := waveform.NewWaveform(times, values)
		if (serr == nil) != (err == nil) {
			t.Fatalf("streaming error %v, NewWaveform error %v", serr, err)
		}
		if err != nil {
			return // malformed samples must error, never panic
		}
		if want := digitize(w, vth); !sameTrace(tr, want) {
			t.Fatalf("streamed trace %+v, batch %+v", tr, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("digitized trace violates invariants: %v", err)
		}
		prev := math.Inf(-1)
		for i, e := range tr.Events {
			if math.IsNaN(e.Time) {
				t.Fatalf("event %d at NaN time", i)
			}
			if e.Time < w.Start() || e.Time > w.End() {
				t.Fatalf("event %d at %g outside the record [%g, %g]", i, e.Time, w.Start(), w.End())
			}
			if e.Time < prev {
				t.Fatalf("event %d out of order", i)
			}
			prev = e.Time
		}
		// The initial and the final value match the first and the last
		// sample's side of the threshold.
		if got, want := tr.Initial, w.Values[0] > vth; got != want {
			t.Fatalf("initial value %v, want %v (first sample %g vs vth %g)", got, want, w.Values[0], vth)
		}
		if got, want := tr.Final(), w.Values[n-1] > vth; got != want {
			t.Fatalf("final value %v, want %v (last sample %g vs vth %g)", got, want, w.Values[n-1], vth)
		}
	})
}

// FuzzDeviationAreaOrder checks that DeviationArea reads traces whose
// events are out of time order as the traces New builds from them. Each
// byte after the first three is one event: bit 7 picks the trace, bit 6
// the value and the low six bits the time on a 1 ps grid, so equal
// times and redundant events are common. The match is relative, not
// exact: an event that leaves the value unchanged still ends one summed
// interval and starts the next, which moves the rounding.
func FuzzDeviationAreaOrder(f *testing.F) {
	const grid = 1e-12
	f.Add([]byte{2, 10, 0, 0x07, 0x46, 0x41}) // [(7,↓),(6,↑),(1,↑)] from low against low, over [2, 10]
	f.Add([]byte{0, 64, 3, 0x05, 0x85, 0x45, 0xc3, 0x02, 0x82})
	f.Add([]byte{5, 5, 1, 0x45, 0x05, 0xc5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		t0, t1 := float64(raw[0]%72)*grid, float64(raw[1]%72)*grid
		var tr [2]Trace
		tr[0].Initial, tr[1].Initial = raw[2]&1 != 0, raw[2]&2 != 0
		for _, c := range raw[3:] {
			l := &tr[c>>7]
			l.Events = append(l.Events, Event{Time: float64(c&0x3f) * grid, Value: c&0x40 != 0})
		}
		a, b := New(tr[0].Initial, tr[0].Events), New(tr[1].Initial, tr[1].Events)
		for _, p := range [][4]Trace{{tr[0], tr[1], a, b}, {tr[1], tr[0], b, a}} {
			got, want := DeviationArea(p[0], p[1], t0, t1), DeviationArea(p[2], p[3], t0, t1)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("DeviationArea of the raw events %g, of the normalized traces %g", got, want)
			}
		}
	})
}
