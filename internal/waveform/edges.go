package waveform

import (
	"fmt"
	"math"
	"sort"
)

// Signal is a continuous-time voltage source v(t). Input stimuli for the
// analog simulator are Signals; the simulator samples them at its own
// (adaptive) time points.
type Signal func(t float64) float64

// Constant returns a time-invariant signal.
func Constant(v float64) Signal {
	return func(float64) float64 { return v }
}

// RaisedCosineEdge returns a smooth monotone transition from v0 to v1
// centred so that the 50% point (the V_th crossing for v0, v1 =
// GND, VDD) occurs exactly at t50, with total transition time trise.
// The raised-cosine shape has continuous derivative everywhere, which is
// kind to the Newton iteration of the analog solver and is a reasonable
// stand-in for the smooth driver-shaped edges Spectre produces.
func RaisedCosineEdge(t50, trise, v0, v1 float64) Signal {
	if trise <= 0 {
		panic(fmt.Sprintf("waveform: non-positive rise time %g", trise))
	}
	start := t50 - float64(trise/2)
	return func(t float64) float64 {
		x := (t - start) / trise
		switch {
		case x <= 0:
			return v0
		case x >= 1:
			return v1
		default:
			return v0 + float64((v1-v0)*0.5*(1-math.Cos(math.Pi*x)))
		}
	}
}

// Transition is one digital event on a driven input: the signal crosses
// V_th at Time, rising if Rising.
type Transition struct {
	Time   float64
	Rising bool
}

// Edges builds a Signal from a sequence of threshold-crossing times. The
// signal idles at the level implied by the first transition (low before a
// rising edge, high before a falling one) and applies a raised-cosine edge
// of duration trise for every transition. Transitions must be sorted and
// separated; overlapping edges are truncated at the midpoint between
// consecutive events so that the signal remains single-valued.
func Edges(transitions []Transition, trise, vLow, vHigh float64) (Signal, error) {
	if trise <= 0 || math.IsNaN(trise) || math.IsInf(trise, 0) {
		return nil, fmt.Errorf("waveform: invalid rise time %g", trise)
	}
	if math.IsNaN(vLow) || math.IsInf(vLow, 0) || math.IsNaN(vHigh) || math.IsInf(vHigh, 0) {
		return nil, fmt.Errorf("waveform: non-finite levels %g/%g", vLow, vHigh)
	}
	for i, t := range transitions {
		if math.IsNaN(t.Time) || math.IsInf(t.Time, 0) {
			return nil, fmt.Errorf("waveform: non-finite transition time %g at index %d", t.Time, i)
		}
	}
	ts := append([]Transition(nil), transitions...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Time < ts[j].Time })
	for i := 1; i < len(ts); i++ {
		if ts[i].Rising == ts[i-1].Rising {
			return nil, fmt.Errorf("waveform: consecutive transitions %d and %d have the same direction", i-1, i)
		}
	}
	if len(ts) == 0 {
		return Constant(vLow), nil
	}
	// Precompute the per-edge geometry once: the solver samples the signal
	// on every Newton solve, so the returned closure is hot. settled[i+1]
	// is the level after transition i (settled[0] the idle level); an
	// inline binary search replaces sort.Search's indirect predicate
	// calls. The edge arithmetic itself is unchanged.
	times := make([]float64, len(ts))
	settled := make([]float64, len(ts)+1)
	if ts[0].Rising {
		settled[0] = vLow
	} else {
		settled[0] = vHigh
	}
	for i, tr := range ts {
		times[i] = tr.Time
		if tr.Rising {
			settled[i+1] = vHigh
		} else {
			settled[i+1] = vLow
		}
	}
	half := trise / 2
	return func(t float64) float64 {
		// Find the first transition with Time > t. Value is determined by
		// the most recent edge whose ramp covers t, or by the settled
		// level otherwise; candidate edges are idx-1 (may still be
		// ramping or settled) and idx (its ramp may have started already
		// since edges are centred).
		lo, hi := 0, len(times)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if times[mid] > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		idx := lo
		if idx < len(times) {
			if start := times[idx] - half; t >= start {
				from, to := settled[idx], settled[idx+1]
				x := (t - start) / trise
				return from + float64((to-from)*0.5*(1-math.Cos(math.Pi*x)))
			}
		}
		if idx > 0 {
			if start := times[idx-1] - half; t <= times[idx-1]+half {
				from, to := settled[idx-1], settled[idx]
				x := (t - start) / trise
				return from + float64((to-from)*0.5*(1-math.Cos(math.Pi*x)))
			}
		}
		return settled[idx]
	}, nil
}

// Sample evaluates s on a uniform grid over [t0, t1] with n intervals.
func Sample(s Signal, t0, t1 float64, n int) (*Waveform, error) {
	if n < 1 {
		return nil, fmt.Errorf("waveform: sample count must be positive")
	}
	times := make([]float64, n+1)
	values := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(n)
		times[i] = t
		values[i] = s(t)
	}
	return NewWaveform(times, values)
}
