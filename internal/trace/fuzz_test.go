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
	f.Fuzz(func(t *testing.T, raw []byte, vth float64) {
		vals := fuzzFloats(raw, 64)
		n := len(vals) / 2
		w, err := waveform.NewWaveform(vals[:n], vals[n:2*n])
		if err != nil {
			return // malformed samples must error, never panic
		}
		tr := Digitize(w, vth)
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
		// The initial value matches the first sample's side of the
		// threshold, and re-digitizing is stable.
		if got, want := tr.Initial, w.Values[0] > vth; got != want {
			t.Fatalf("initial value %v, want %v (first sample %g vs vth %g)", got, want, w.Values[0], vth)
		}
		again := Digitize(w, vth)
		if again.Initial != tr.Initial || len(again.Events) != len(tr.Events) {
			t.Fatal("digitization is not deterministic")
		}
	})
}
