package nor_test

import (
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// nor3Fall is the NOR3 falling probe with rising inputs at offsets
// (0, dB, dC) from a precharged stack.
func nor3Fall(b *gate.Analog, dB, dC float64) gate.Probe {
	return gate.Probe{Offsets: []float64{0, dB, dC}, Rising: true, VInt: b.Params().Supply.VDD}
}

// TestNOR3AnalogMISOrdering: the analog 3-input gate shows the
// three-level falling MIS hierarchy the generalized hybrid model
// predicts: all-simultaneous < pairwise < SIS.
func TestNOR3AnalogMISOrdering(t *testing.T) {
	b := newBench(t, gate.NOR3, 8e-12)
	all := delay(t, b, nor3Fall(b, 0, 0))
	two := delay(t, b, nor3Fall(b, 0, nor.SISFar))
	sis := delay(t, b, nor3Fall(b, nor.SISFar, 2*nor.SISFar))
	if !(all < two && two < sis) {
		t.Errorf("analog 3-input MIS ordering broken: all=%.2fps two=%.2fps sis=%.2fps",
			waveform.ToPs(all), waveform.ToPs(two), waveform.ToPs(sis))
	}
	// The three-way dip is deeper than the two-way one.
	dip3 := (all - sis) / sis
	dip2 := (two - sis) / sis
	if !(dip3 < dip2 && dip3 < -0.3) {
		t.Errorf("dips: three-way %.1f%%, two-way %.1f%%", 100*dip3, 100*dip2)
	}
}

// TestNOR3AnalogRisingStack: the three-deep stack slows the rising
// output relative to the 2-input gate, and discharged internal nodes
// (worst case) are slower than precharged ones.
func TestNOR3AnalogRisingStack(t *testing.T) {
	b3 := newBench(t, gate.NOR3, 8e-12)
	b2 := newBench(t, gate.NOR2, 8e-12)
	worst := gate.Probe{Offsets: []float64{0, 0, 0}}
	rise3 := delay(t, b3, worst)
	rise2 := delay(t, b2, b2.Pair(0, false))
	if rise3 <= rise2 {
		t.Errorf("NOR3 rise(0)=%.2fps should exceed NOR2 rise(0)=%.2fps",
			waveform.ToPs(rise3), waveform.ToPs(rise2))
	}
	pre := worst
	pre.VInt = b3.Params().Supply.VDD
	if p := delay(t, b3, pre); p >= rise3 {
		t.Errorf("precharged stack (%.2fps) should be faster than discharged (%.2fps)",
			waveform.ToPs(p), waveform.ToPs(rise3))
	}
}

// TestNOR3ModelTracksAnalog: the generalized switch-level model,
// extrapolated from the Table I 2-input fit, tracks the analog 3-input
// MIS *shape* (ordering and rough dip depth), which is the same
// standard the paper's Fig. 5 holds the 2-input model to.
func TestNOR3ModelTracksAnalog(t *testing.T) {
	// Shapes, not absolute ps: the 3-input model is extrapolated, not
	// fitted.
	b := newBench(t, gate.NOR3, 8e-12)
	all := delay(t, b, nor3Fall(b, 0, 0))
	sis := delay(t, b, nor3Fall(b, nor.SISFar, 2*nor.SISFar))
	analogDip := (all - sis) / sis

	mc, err := hybrid.NOR3FromNOR2(hybrid.TableI()).Characteristic3()
	if err != nil {
		t.Fatal(err)
	}
	modelDip := (mc.FallAllZero - mc.FallSIS) / mc.FallSIS
	if analogDip > -0.25 || modelDip > -0.25 {
		t.Errorf("three-way dips too shallow: analog %.1f%%, model %.1f%%", 100*analogDip, 100*modelDip)
	}
	// Both should land in the same broad band (the ideal-switch model
	// overshoots the dip, as in the 2-input case).
	if modelDip < analogDip-0.35 || modelDip > analogDip+0.35 {
		t.Errorf("model dip %.1f%% far from analog dip %.1f%%", 100*modelDip, 100*analogDip)
	}
}
