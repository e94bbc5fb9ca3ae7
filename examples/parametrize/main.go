// parametrize demonstrates the §V calibration workflow on externally
// supplied characteristic Charlie delays — here the paper's own SPICE
// values from Fig. 2 — reproducing the Table I fit including the
// 18 ps pure delay.
//
// Run with:
//
//	go run ./examples/parametrize
package main

import (
	"fmt"
	"log"

	"hybriddelay"
)

func main() {
	// The paper's measured 15nm FinFET values (read off Fig. 2b/2d).
	target := hybriddelay.Characteristic{
		FallMinusInf: hybriddelay.Ps(38),
		FallZero:     hybriddelay.Ps(28),
		FallPlusInf:  hybriddelay.Ps(40),
		RiseMinusInf: hybriddelay.Ps(55.6),
		RiseZero:     hybriddelay.Ps(56.8),
		RisePlusInf:  hybriddelay.Ps(53.4),
	}

	// The §IV impossibility: without a pure delay, fall(-inf)/fall(0)
	// would need to be ~ (R3+R4)/R3 ~ 2, but the measured ratio is
	// 38/28 = 1.36. AutoDMin picks the pure delay that restores ratio 2.
	dmin := hybriddelay.AutoDMin(target)
	fmt.Printf("measured falling ratio: %.3f (unfittable; the model wants ~2)\n",
		target.FallMinusInf/target.FallZero)
	fmt.Printf("auto pure delay: %.1f ps (paper: 18 ps)\n", hybriddelay.ToPs(dmin))
	fmt.Printf("shifted ratio: %.3f\n\n",
		(target.FallMinusInf-dmin)/(target.FallZero-dmin))

	// Least-squares fit of R1..R4 and CN (CO pinned — only RC products
	// matter, see the header of internal/hybrid/fitting.go).
	p, rep, err := hybriddelay.FitCharacteristic(target, hybriddelay.DefaultSupply(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fitted parameters (compare paper Table I):")
	fmt.Printf("  %s\n", p)
	fmt.Printf("  paper: %s\n\n", hybriddelay.TableI())

	fmt.Println("achieved vs target [ps]:")
	names := []string{"fall(-inf)", "fall(0)", "fall(+inf)", "rise(-inf)", "rise(0)", "rise(+inf)"}
	a := rep.Achieved.AsSlice()
	w := target.AsSlice()
	for i := range names {
		fmt.Printf("  %-11s %6.2f  (target %6.2f)\n", names[i], hybriddelay.ToPs(a[i]), hybriddelay.ToPs(w[i]))
	}
	fmt.Println("\nThe rising -inf and 0 targets cannot both be met: the model's")
	fmt.Println("delta_rise is V_N-invariant in mode (1,1) (paper Fig. 6); the fit")
	fmt.Println("compromises between them exactly as the paper describes.")
}
