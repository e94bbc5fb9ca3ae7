package main

import (
	"fmt"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/waveform"
)

// runNAND compares the duality-derived NAND model against the
// transistor-level NAND bench (extension X1 of DESIGN.md).
func runNAND(opt options) error {
	bench, err := analogBench(opt, "nand2")
	if err != nil {
		return err
	}
	meas, err := bench.Measure()
	if err != nil {
		return err
	}
	analog := meas.Pair
	model := hybrid.NANDFromDual(hybrid.TableI())
	mc, err := model.Characteristic()
	if err != nil {
		return err
	}
	fmt.Println("2-input NAND (structural dual of the paper's NOR):")
	fmt.Printf("  %-22s %10s %10s\n", "characteristic delay", "analog", "model*")
	rows := []struct {
		name string
		a, m float64
	}{
		{"fall(-inf) [ps]", analog.FallMinusInf, mc.FallMinusInf},
		{"fall(0)    [ps]", analog.FallZero, mc.FallZero},
		{"fall(+inf) [ps]", analog.FallPlusInf, mc.FallPlusInf},
		{"rise(-inf) [ps]", analog.RiseMinusInf, mc.RiseMinusInf},
		{"rise(0)    [ps]", analog.RiseZero, mc.RiseZero},
		{"rise(+inf) [ps]", analog.RisePlusInf, mc.RisePlusInf},
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %10.2f %10.2f\n", r.name, waveform.ToPs(r.a), waveform.ToPs(r.m))
	}
	fmt.Println("  (*Table I dual, not refitted — compare shapes: rising speed-up,")
	fmt.Println("   falling slow-down, stack direction slower than parallel.)")
	return nil
}

// runNOR3 compares the generalized 3-input switch-level model against
// the transistor-level 3-input bench (extension of the paper's
// multi-input premise).
func runNOR3(opt options) error {
	bench, err := analogBench(opt, "nor3")
	if err != nil {
		return err
	}
	model := hybrid.NOR3FromNOR2(hybrid.TableI())
	mc, err := model.Characteristic3()
	if err != nil {
		return err
	}
	// Falling probes from a precharged stack, the rising one from the
	// worst case (discharged internal nodes).
	vdd := bench.Params().Supply.VDD
	var a [4]float64
	for i, pr := range []gate.Probe{
		{Offsets: []float64{0, 0, 0}, Rising: true, VInt: vdd},
		{Offsets: []float64{0, 0, nor.SISFar}, Rising: true, VInt: vdd},
		{Offsets: []float64{0, nor.SISFar, 2 * nor.SISFar}, Rising: true, VInt: vdd},
		{Offsets: []float64{0, 0, 0}},
	} {
		if a[i], err = bench.Delay(pr); err != nil {
			return err
		}
	}
	aAll, aTwo, aSIS, aRise := a[0], a[1], a[2], a[3]
	fmt.Println("3-input NOR (generalized switch-level hybrid model, 3x3 modes):")
	fmt.Printf("  %-28s %10s %10s\n", "delay", "analog", "model*")
	fmt.Printf("  %-28s %10.2f %10.2f\n", "fall, all simultaneous [ps]", waveform.ToPs(aAll), waveform.ToPs(mc.FallAllZero))
	fmt.Printf("  %-28s %10.2f %10.2f\n", "fall, two simultaneous [ps]", waveform.ToPs(aTwo), waveform.ToPs(mc.FallTwoZero))
	fmt.Printf("  %-28s %10.2f %10.2f\n", "fall, SIS [ps]", waveform.ToPs(aSIS), waveform.ToPs(mc.FallSIS))
	fmt.Printf("  %-28s %10.2f %10.2f\n", "rise, all simultaneous [ps]", waveform.ToPs(aRise), waveform.ToPs(mc.RiseAllZero))
	fmt.Printf("  three-way MIS dip: analog %.1f%%, model %.1f%% (ideal-switch bound -67%%)\n",
		100*(aAll-aSIS)/aSIS, 100*(mc.FallAllZero-mc.FallSIS)/mc.FallSIS)
	fmt.Println("  (*extrapolated from the Table I 2-input fit, not refitted.)")
	return nil
}
