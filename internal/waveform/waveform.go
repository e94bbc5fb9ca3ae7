// Package waveform provides analog waveform containers and the input edge
// shapes used to drive both the analog NOR testbench and the delay-model
// evaluation pipeline. Voltages are volts, times are seconds.
package waveform

import (
	"fmt"
	"math"
	"sort"
)

// Supply describes the voltage environment. The paper uses the 15nm
// Nangate library at VDD = 0.8 V with the discretization threshold at
// VDD/2.
type Supply struct {
	VDD float64 // supply voltage [V]
	Vth float64 // logic threshold [V]
}

// DefaultSupply matches the paper's environment (VDD = 0.8 V, Vth = 0.4 V).
func DefaultSupply() Supply { return Supply{VDD: 0.8, Vth: 0.4} }

// Valid reports whether the supply is physically meaningful.
func (s Supply) Valid() bool {
	return s.VDD > 0 && s.Vth > 0 && s.Vth < s.VDD
}

// Common unit helpers.
const (
	Pico  = 1e-12 // seconds per picosecond
	Nano  = 1e-9  // seconds per nanosecond
	Femto = 1e-15 // farads per femtofarad
	Atto  = 1e-18 // farads per attofarad
	Kilo  = 1e3   // ohms per kiloohm
)

// Ps converts picoseconds to seconds.
func Ps(v float64) float64 { return v * Pico }

// ToPs converts seconds to picoseconds.
func ToPs(v float64) float64 { return v / Pico }

// Waveform is a sampled analog signal with strictly increasing times and
// linear interpolation between samples.
type Waveform struct {
	Times  []float64
	Values []float64
}

// NewWaveform validates and wraps the sample vectors. Samples must be
// finite: a NaN or ±Inf time or voltage (e.g. from a diverged transient)
// is rejected here so that interpolation, crossing detection and
// digitization never operate on — or silently produce — non-finite data.
func NewWaveform(times, values []float64) (*Waveform, error) {
	if len(times) != len(values) {
		return nil, fmt.Errorf("waveform: %d times vs %d values", len(times), len(values))
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("waveform: empty waveform")
	}
	for i := range times {
		if math.IsNaN(times[i]) || math.IsInf(times[i], 0) {
			return nil, fmt.Errorf("waveform: non-finite time %g at index %d", times[i], i)
		}
		if math.IsNaN(values[i]) || math.IsInf(values[i], 0) {
			return nil, fmt.Errorf("waveform: non-finite value %g at index %d", values[i], i)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("waveform: non-increasing time at index %d (%g after %g)", i, times[i], times[i-1])
		}
	}
	return &Waveform{Times: times, Values: values}, nil
}

// Len returns the sample count.
func (w *Waveform) Len() int { return len(w.Times) }

// Start returns the first sample time.
func (w *Waveform) Start() float64 { return w.Times[0] }

// End returns the last sample time.
func (w *Waveform) End() float64 { return w.Times[len(w.Times)-1] }

// At returns the linearly interpolated value at time t, clamping to the
// first/last sample outside the record.
func (w *Waveform) At(t float64) float64 {
	n := len(w.Times)
	if t <= w.Times[0] {
		return w.Values[0]
	}
	if t >= w.Times[n-1] {
		return w.Values[n-1]
	}
	// Binary search for the segment containing t.
	i := sort.SearchFloat64s(w.Times, t)
	if w.Times[i] == t {
		return w.Values[i]
	}
	t0, t1 := w.Times[i-1], w.Times[i]
	v0, v1 := w.Values[i-1], w.Values[i]
	f := (t - t0) / (t1 - t0)
	return v0 + float64(f*(v1-v0))
}

// Crossing describes one threshold crossing of a waveform.
type Crossing struct {
	Time   float64
	Rising bool // true if the waveform crosses the level upward
}

// Crossings returns all times at which the waveform crosses level,
// resolved by linear interpolation within each sample interval. Exact
// touches without a sign change are ignored (they do not change the
// digital abstraction).
func (w *Waveform) Crossings(level float64) []Crossing {
	var out []Crossing
	for i := 1; i < len(w.Times); i++ {
		v0 := w.Values[i-1] - level
		v1 := w.Values[i] - level
		if v0 == 0 || v0*v1 >= 0 {
			continue
		}
		f := v0 / (v0 - v1)
		t0, t1 := w.Times[i-1], w.Times[i]
		// The interpolation can round past t1 when |t0| ≫ |t1|.
		t := min(max(t0+float64(f*(t1-t0)), t0), t1)
		out = append(out, Crossing{Time: t, Rising: v1 > v0})
	}
	return out
}

// FirstCrossingAfter returns the earliest crossing of level after time t0
// with the requested direction; ok is false if none exists.
func (w *Waveform) FirstCrossingAfter(t0, level float64, rising bool) (float64, bool) {
	for _, c := range w.Crossings(level) {
		if c.Time > t0 && c.Rising == rising {
			return c.Time, true
		}
	}
	return 0, false
}

// Clip returns the waveform restricted to [t0, t1], adding interpolated
// boundary samples.
func (w *Waveform) Clip(t0, t1 float64) (*Waveform, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("waveform: invalid clip window [%g, %g]", t0, t1)
	}
	times := []float64{t0}
	values := []float64{w.At(t0)}
	for i, t := range w.Times {
		if t > t0 && t < t1 {
			times = append(times, t)
			values = append(values, w.Values[i])
		}
	}
	times = append(times, t1)
	values = append(values, w.At(t1))
	return NewWaveform(times, values)
}

// MaxAbsDiff returns the maximum absolute difference between two waveforms
// sampled on the union of their time grids within their overlap.
func MaxAbsDiff(a, b *Waveform) float64 {
	times := append(append([]float64(nil), a.Times...), b.Times...)
	sort.Float64s(times)
	m := 0.0
	for _, t := range times {
		if d := math.Abs(a.At(t) - b.At(t)); d > m {
			m = d
		}
	}
	return m
}
