package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/waveform"
)

func mkTrace(initial bool, times ...float64) Trace {
	var ev []Event
	v := initial
	for _, t := range times {
		v = !v
		ev = append(ev, Event{Time: t, Value: v})
	}
	return New(initial, ev)
}

func TestNewNormalizes(t *testing.T) {
	tr := New(false, []Event{
		{Time: 2, Value: true},
		{Time: 1, Value: true}, // out of order; after sort this one leads
		{Time: 3, Value: true}, // redundant (no change)
		{Time: 4, Value: false},
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("normalized trace invalid: %v", err)
	}
	if tr.NumEvents() != 2 {
		t.Errorf("got %d events, want 2 (dedup + sort)", tr.NumEvents())
	}
}

func TestAtAndFinal(t *testing.T) {
	tr := mkTrace(false, 10, 20, 30)
	cases := []struct {
		tm   float64
		want bool
	}{{5, false}, {10, true}, {15, true}, {20, false}, {25, false}, {30, true}, {99, true}}
	for _, c := range cases {
		if got := tr.At(c.tm); got != c.want {
			t.Errorf("At(%g) = %v, want %v", c.tm, got, c.want)
		}
	}
	if !tr.Final() {
		t.Error("Final wrong")
	}
	empty := Trace{Initial: true}
	if !empty.At(5) || !empty.Final() {
		t.Error("empty trace handling wrong")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := Trace{Initial: false, Events: []Event{{Time: 1, Value: false}}}
	if err := bad.Validate(); err == nil {
		t.Error("expected non-alternating error")
	}
	bad2 := Trace{Initial: false, Events: []Event{{Time: 2, Value: true}, {Time: 1, Value: false}}}
	if err := bad2.Validate(); err == nil {
		t.Error("expected ordering error")
	}
	// A NaN time is itself invalid, and must not hide the order check
	// of the next event (NaN < x and x < NaN are both false).
	nan := Trace{Initial: false, Events: []Event{{Time: 1, Value: true}, {Time: math.NaN(), Value: false}, {Time: 0.5, Value: true}}}
	if err := nan.Validate(); err == nil {
		t.Error("expected NaN time error")
	}
}

// digitize is the batch digitization the streaming Digitizer must
// match: the waveform's first-sample side of vth, then its Crossings as
// events, normalized by New.
func digitize(w *waveform.Waveform, vth float64) Trace {
	var ev []Event
	for _, c := range w.Crossings(vth) {
		ev = append(ev, Event{Time: c.Time, Value: c.Rising})
	}
	return New(w.Values[0] > vth, ev)
}

// stream feeds the samples to a Digitizer one at a time.
func stream(times, values []float64, vth float64) (Trace, error) {
	d := NewDigitizer(vth)
	for i := range times {
		if err := d.Add(times[i], values[i]); err != nil {
			return Trace{}, err
		}
	}
	return d.Trace()
}

// sameTrace compares two traces bit for bit.
func sameTrace(a, b Trace) bool {
	if a.Initial != b.Initial || len(a.Events) != len(b.Events) {
		return false
	}
	for i, e := range a.Events {
		if math.Float64bits(e.Time) != math.Float64bits(b.Events[i].Time) || e.Value != b.Events[i].Value {
			return false
		}
	}
	return true
}

func TestDigitize(t *testing.T) {
	times, values := []float64{0, 1, 2, 3, 4}, []float64{0, 1, 0, 1, 0}
	tr, err := stream(times, values, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Initial {
		t.Error("initial should be low")
	}
	if tr.NumEvents() != 4 {
		t.Fatalf("got %d events, want 4", tr.NumEvents())
	}
	wantTimes := []float64{0.5, 1.5, 2.5, 3.5}
	for i, e := range tr.Events {
		if math.Abs(e.Time-wantTimes[i]) > 1e-12 {
			t.Errorf("event %d at %g, want %g", i, e.Time, wantTimes[i])
		}
	}
	if _, err := stream(nil, nil, 0.5); err == nil {
		t.Error("digitizing no samples: want an error")
	}
}

// TestDigitizeSampleOnLevel checks transitions through a sample that
// lies exactly on the threshold: a sample on the level counts as low,
// so a ramp through it crosses at that sample in either direction.
func TestDigitizeSampleOnLevel(t *testing.T) {
	times := []float64{0, 1, 2}
	for _, c := range []struct {
		values []float64
		want   Trace
	}{
		{[]float64{0.3, 0.5, 0.7}, Trace{Initial: false, Events: []Event{{1, true}}}},
		{[]float64{0.7, 0.5, 0.3}, Trace{Initial: true, Events: []Event{{1, false}}}},
		{[]float64{0.3, 0.5, 0.3}, Trace{Initial: false}},
		{[]float64{0.7, 0.5, 0.7}, Trace{Initial: true, Events: []Event{{1, false}, {1, true}}}},
	} {
		got, err := stream(times, c.values, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTrace(got, c.want) {
			t.Errorf("digitizing %v at 0.5: got %+v, want %+v", c.values, got, c.want)
		}
	}
}

func TestDeviationAreaIdentical(t *testing.T) {
	tr := mkTrace(false, 10, 20, 30)
	if a := DeviationArea(tr, tr, 0, 100); a != 0 {
		t.Errorf("self deviation = %g, want 0", a)
	}
}

func TestDeviationAreaShift(t *testing.T) {
	a := mkTrace(false, 10, 20)
	b := a.Shift(3)
	// Disagreement during [10,13) and [20,23): total 6.
	if got := DeviationArea(a, b, 0, 100); math.Abs(got-6) > 1e-12 {
		t.Errorf("deviation = %g, want 6", got)
	}
}

func TestDeviationAreaComplement(t *testing.T) {
	a := mkTrace(false, 10, 20)
	b := a.Invert()
	if got := DeviationArea(a, b, 0, 50); math.Abs(got-50) > 1e-12 {
		t.Errorf("deviation vs complement = %g, want full window 50", got)
	}
}

func TestDeviationAreaWindow(t *testing.T) {
	a := mkTrace(false, 10)
	b := mkTrace(false, 30)
	// Disagree on [10, 30); window [15, 25] sees 10.
	if got := DeviationArea(a, b, 15, 25); math.Abs(got-10) > 1e-12 {
		t.Errorf("deviation = %g, want 10", got)
	}
	if got := DeviationArea(a, b, 25, 15); got != 0 {
		t.Errorf("inverted window = %g, want 0", got)
	}
}

// Deviation area is a pseudometric: symmetric and triangle inequality.
func TestDeviationAreaMetricProperties(t *testing.T) {
	gen := func(rng *rand.Rand) Trace {
		n := rng.Intn(8)
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * 100
		}
		var ev []Event
		v := rng.Intn(2) == 0
		init := v
		// sort via New's normalization; alternate explicitly
		for _, tm := range times {
			v = !v
			ev = append(ev, Event{Time: tm, Value: v})
		}
		tr := New(init, ev)
		return tr
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gen(rng), gen(rng), gen(rng)
		dab := DeviationArea(a, b, 0, 100)
		dba := DeviationArea(b, a, 0, 100)
		if math.Abs(dab-dba) > 1e-9 {
			return false
		}
		dac := DeviationArea(a, c, 0, 100)
		dcb := DeviationArea(c, b, 0, 100)
		return dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClipShiftInvert(t *testing.T) {
	tr := mkTrace(false, 10, 20, 30)
	s := tr.Shift(5)
	if s.Events[0].Time != 15 {
		t.Error("shift wrong")
	}
	inv := tr.Invert()
	if err := inv.Validate(); err != nil {
		t.Errorf("inverted trace invalid: %v", err)
	}
	if inv.At(15) != !tr.At(15) {
		t.Error("invert wrong")
	}
}

func TestCombineAndNOR2(t *testing.T) {
	a := mkTrace(false, 10, 40)
	b := mkTrace(false, 20, 30)
	nor := NOR2(a, b)
	// NOR truth: high iff both low. Initially true; falls at 10 (a up);
	// a stays up till 40, b pulses 20-30 inside: output rises again at 40.
	if !nor.Initial {
		t.Error("NOR initial should be true")
	}
	if nor.NumEvents() != 2 {
		t.Fatalf("NOR events = %+v", nor.Events)
	}
	if nor.Events[0].Time != 10 || nor.Events[0].Value {
		t.Errorf("first NOR event %+v", nor.Events[0])
	}
	if nor.Events[1].Time != 40 || !nor.Events[1].Value {
		t.Errorf("second NOR event %+v", nor.Events[1])
	}
}

func TestCombineSimultaneous(t *testing.T) {
	// Both inputs toggle at the same instant: only the net effect shows.
	a := mkTrace(false, 10)
	b := mkTrace(true, 10)
	xor := Combine(func(v []bool) bool { return v[0] != v[1] }, a, b)
	// XOR is true before (F,T) and true after (T,F): no event at all.
	if xor.NumEvents() != 0 {
		t.Errorf("XOR events = %+v, want none", xor.Events)
	}
}

func TestTransitions(t *testing.T) {
	tr := New(false, []Event{{Time: 1, Value: true}, {Time: 2, Value: false}})
	back := tr.Transitions()
	if len(back) != 2 || !back[0].Rising || back[1].Rising {
		t.Errorf("Transitions wrong: %+v", back)
	}
}
