package nor_test

import (
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/waveform"
)

// TestSmokeDelays exercises the full analog path end to end and prints
// the characteristic delays; detailed assertions live in nor_test.go.
func TestSmokeDelays(t *testing.T) {
	fm, f0, fp, rm, r0, rp := characteristic(t, newBench(t, gate.NOR2, 4e-12))
	t.Logf("fall: -inf=%.2fps 0=%.2fps +inf=%.2fps", waveform.ToPs(fm), waveform.ToPs(f0), waveform.ToPs(fp))
	t.Logf("rise: -inf=%.2fps 0=%.2fps +inf=%.2fps", waveform.ToPs(rm), waveform.ToPs(r0), waveform.ToPs(rp))
	if f0 >= fm || f0 >= fp {
		t.Errorf("expected falling MIS speed-up: %g %g %g", fm, f0, fp)
	}
}
