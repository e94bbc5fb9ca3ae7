package nor_test

import (
	"testing"

	"hybriddelay/internal/gate"
)

// TestNANDMISMirrored: the analog NAND shows the mirrored Charlie
// effects — rising speed-up (parallel pMOS), falling slow-down bump
// (serial nMOS stack with node M).
func TestNANDMISMirrored(t *testing.T) {
	fm, f0, fp, rm, r0, rp := characteristic(t, newBench(t, gate.NAND2, 8e-12))
	// Rising output: MIS speed-up.
	if !(r0 < rm && r0 < rp) {
		t.Errorf("NAND rising speed-up missing: %g %g %g", rm, r0, rp)
	}
	dip := (r0 - rm) / rm
	if dip > -0.15 || dip < -0.55 {
		t.Errorf("NAND rising dip = %.1f%%, expected a pronounced speed-up", 100*dip)
	}
	// Falling output: MIS slow-down at Delta = 0 relative to both tails.
	if !(f0 > fm && f0 > fp) {
		t.Errorf("NAND falling slow-down missing: %g %g %g", fm, f0, fp)
	}
	// The serial stack makes falling slower than rising overall.
	if fm < rm {
		t.Errorf("NAND fall(-inf)=%g should exceed rise(-inf)=%g (stack vs parallel)", fm, rm)
	}
}

// TestNANDWorstCaseM: a precharged stack node M slows the falling output
// (the mirror of the paper's V_N worst-case discussion).
func TestNANDWorstCaseM(t *testing.T) {
	b := newBench(t, gate.NAND2, 8e-12)
	pr := b.Pair(0, true)
	slow := delay(t, b, pr)
	pr.VInt = 0
	if fast := delay(t, b, pr); slow <= fast {
		t.Errorf("VM=VDD (%g) should be slower than VM=0 (%g)", slow, fast)
	}
}
