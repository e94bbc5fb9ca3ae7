// mischarlie sweeps the MIS ("Charlie effect") delays of the
// transistor-level golden NOR gate and of the fitted hybrid model side
// by side — the data behind the paper's Figs. 2, 5 and 6.
//
// Run with:
//
//	go run ./examples/mischarlie
package main

import (
	"fmt"
	"log"

	"hybriddelay"
)

func main() {
	// 1. Build the analog golden reference (the Spectre substitute) and
	//    measure its characteristic Charlie delays.
	bp := hybriddelay.DefaultBenchParams()
	bp.MaxStep = 8e-12 // coarser integration: plenty for a demo
	bench, err := hybriddelay.NewBench(bp)
	if err != nil {
		log.Fatal(err)
	}
	target, err := hybriddelay.MeasureCharacteristic(bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden characteristic delays [ps]: fall %.2f/%.2f/%.2f rise %.2f/%.2f/%.2f\n",
		hybriddelay.ToPs(target.FallMinusInf), hybriddelay.ToPs(target.FallZero), hybriddelay.ToPs(target.FallPlusInf),
		hybriddelay.ToPs(target.RiseMinusInf), hybriddelay.ToPs(target.RiseZero), hybriddelay.ToPs(target.RisePlusInf))

	// 2. Parametrize the hybrid model against them (paper §V): the pure
	//    delay is chosen automatically so the falling ratio becomes 2.
	model, report, err := hybriddelay.FitCharacteristic(target, bp.Supply, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model: %s (cost %.2e)\n\n", model, report.Cost)

	// 3. Sweep the input separation and compare (Fig. 5 for falling,
	//    Fig. 6 for rising with the worst-case V_N = GND). The bench's
	//    pair probe switches both inputs Delta apart: rising inputs make
	//    the NOR output fall, falling ones make it rise.
	fmt.Println("Delta [ps] | golden fall | model fall | golden rise | model rise")
	for _, dPs := range []float64{-60, -40, -20, -10, 0, 10, 20, 40, 60} {
		delta := hybriddelay.Ps(dPs)
		gf, err := bench.Delay(bench.Pair(delta, true))
		if err != nil {
			log.Fatal(err)
		}
		mf, err := model.FallingDelay(delta)
		if err != nil {
			log.Fatal(err)
		}
		gr, err := bench.Delay(bench.Pair(delta, false))
		if err != nil {
			log.Fatal(err)
		}
		mr, err := model.RisingDelay(delta, hybriddelay.VNGround)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10.0f | %11.2f | %10.2f | %11.2f | %10.2f\n",
			dPs, hybriddelay.ToPs(gf), hybriddelay.ToPs(mf), hybriddelay.ToPs(gr), hybriddelay.ToPs(mr))
	}
	fmt.Println("\nNote the model's rising delays are flat for Delta <= 0: mode (1,1)")
	fmt.Println("cannot change V_N, the model deficiency the paper reports in Fig. 6.")
}
