package waveform

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSupply(t *testing.T) {
	s := DefaultSupply()
	if s.VDD != 0.8 || s.Vth != 0.4 {
		t.Errorf("default supply = %+v, want VDD=0.8 Vth=0.4", s)
	}
	if !s.Valid() {
		t.Error("default supply invalid")
	}
	for _, bad := range []Supply{{}, {VDD: 1, Vth: 0}, {VDD: 1, Vth: 1}, {VDD: -1, Vth: -0.5}} {
		if bad.Valid() {
			t.Errorf("supply %+v should be invalid", bad)
		}
	}
}

func TestUnitHelpers(t *testing.T) {
	if Ps(100) != 100e-12 {
		t.Error("Ps conversion wrong")
	}
	if ToPs(1e-12) != 1 {
		t.Error("ToPs conversion wrong")
	}
}

func TestNewWaveformValidation(t *testing.T) {
	if _, err := NewWaveform([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := NewWaveform(nil, nil); err == nil {
		t.Error("expected empty-waveform error")
	}
	if _, err := NewWaveform([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("expected non-increasing-time error")
	}
}

func TestWaveformAt(t *testing.T) {
	w, err := NewWaveform([]float64{0, 1, 2}, []float64{0, 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.25, 7.5}, {2, 0}, {3, 0},
	}
	for _, c := range cases {
		if got := w.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if w.Start() != 0 || w.End() != 2 || w.Len() != 3 {
		t.Error("bounds wrong")
	}
}

func TestCrossings(t *testing.T) {
	// Triangle crossing 5 upward at 0.5 and downward at 1.5.
	w, _ := NewWaveform([]float64{0, 1, 2}, []float64{0, 10, 0})
	cs := w.Crossings(5)
	if len(cs) != 2 {
		t.Fatalf("got %d crossings, want 2", len(cs))
	}
	if math.Abs(cs[0].Time-0.5) > 1e-12 || !cs[0].Rising {
		t.Errorf("first crossing %+v, want rising at 0.5", cs[0])
	}
	if math.Abs(cs[1].Time-1.5) > 1e-12 || cs[1].Rising {
		t.Errorf("second crossing %+v, want falling at 1.5", cs[1])
	}
	if tm, ok := w.FirstCrossingAfter(0.6, 5, false); !ok || math.Abs(tm-1.5) > 1e-12 {
		t.Errorf("FirstCrossingAfter = %g ok=%v", tm, ok)
	}
	if _, ok := w.FirstCrossingAfter(0, 20, true); ok {
		t.Error("found impossible crossing")
	}
}

// TestCrossingsSampleOnLevel checks a transition through a sample that
// lies exactly on the level: it crosses once, at that sample, in either
// direction; a touch from below does not cross.
func TestCrossingsSampleOnLevel(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   []Crossing
	}{
		{[]float64{0.3, 0.5, 0.7}, []Crossing{{1, true}}},
		{[]float64{0.7, 0.5, 0.3}, []Crossing{{1, false}}},
		{[]float64{0.3, 0.5, 0.3}, nil},
	} {
		w, err := NewWaveform([]float64{0, 1, 2}, c.values)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Crossings(0.5); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Crossings of %v at 0.5 = %+v, want %+v", c.values, got, c.want)
		}
	}
}

func TestRaisedCosineEdge(t *testing.T) {
	e := RaisedCosineEdge(10, 4, 0, 1)
	if got := e(7); got != 0 {
		t.Errorf("before edge = %g, want 0", got)
	}
	if got := e(13); got != 1 {
		t.Errorf("after edge = %g, want 1", got)
	}
	if got := e(10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("midpoint = %g, want 0.5 (t50 calibration)", got)
	}
	// Monotone.
	prev := -1.0
	for x := 7.0; x <= 13; x += 0.01 {
		v := e(x)
		if v < prev-1e-12 {
			t.Fatalf("edge not monotone at %g", x)
		}
		prev = v
	}
}

func TestRaisedCosineEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive rise time")
		}
	}()
	RaisedCosineEdge(0, 0, 0, 1)
}

func TestEdgesSignal(t *testing.T) {
	sig, err := Edges([]Transition{
		{Time: 100, Rising: true},
		{Time: 200, Rising: false},
	}, 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sig(50); got != 0 {
		t.Errorf("idle level = %g, want 0", got)
	}
	if got := sig(100); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("first threshold point = %g, want 0.5", got)
	}
	if got := sig(150); got != 1 {
		t.Errorf("settled high = %g, want 1", got)
	}
	if got := sig(200); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("second threshold point = %g, want 0.5", got)
	}
	if got := sig(300); got != 0 {
		t.Errorf("settled low = %g, want 0", got)
	}
}

func TestEdgesValidation(t *testing.T) {
	if _, err := Edges(nil, 0, 0, 1); err == nil {
		t.Error("expected rise-time error")
	}
	if _, err := Edges([]Transition{
		{Time: 1, Rising: true}, {Time: 2, Rising: true},
	}, 0.1, 0, 1); err == nil {
		t.Error("expected same-direction error")
	}
	sig, err := Edges(nil, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sig(123) != 0 {
		t.Error("empty edge list should idle low")
	}
}

// TestEdgesCrossingsRoundTrip: sampling an Edges signal and extracting
// threshold crossings recovers the programmed transition times.
func TestEdgesCrossingsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		var ts []Transition
		tcur := 0.0
		rising := true
		for i := 0; i < n; i++ {
			tcur += 40 + rng.Float64()*100
			ts = append(ts, Transition{Time: tcur, Rising: rising})
			rising = !rising
		}
		sig, err := Edges(ts, 20, 0, 1)
		if err != nil {
			return false
		}
		// 20000 uniform intervals over [0, tcur+100].
		const steps = 20000
		times := make([]float64, steps+1)
		values := make([]float64, steps+1)
		for i := range times {
			times[i] = (tcur + 100) * float64(i) / steps
			values[i] = sig(times[i])
		}
		w, err := NewWaveform(times, values)
		if err != nil {
			return false
		}
		cs := w.Crossings(0.5)
		if len(cs) != len(ts) {
			return false
		}
		for i := range cs {
			if math.Abs(cs[i].Time-ts[i].Time) > 0.1 || cs[i].Rising != ts[i].Rising {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
