// pulsefilter explores short-pulse filtration — the behaviour that
// motivated the involution delay model in the first place (the paper's
// §I): sweep the width of an input pulse into a NOR gate and record the
// output pulse width predicted by each delay model.
//
// Inertial delay has a hard cutoff: pulses that fail the filter vanish,
// wider ones pass at full width. Involution exp-channels and the hybrid
// channel shrink marginal pulses continuously — the hybrid channel
// because a pulse only appears when the analog trajectory V_O actually
// crosses the threshold, and near the boundary it barely does.
//
// Run with:
//
//	go run ./examples/pulsefilter
package main

import (
	"fmt"
	"log"

	"hybriddelay"
)

func main() {
	p := hybriddelay.TableI()
	target, err := p.Characteristic()
	if err != nil {
		log.Fatal(err)
	}
	models, err := hybriddelay.BuildModels(target, p.Supply, hybriddelay.Ps(20))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("falling-output pulse: input A pulses high while B stays low")
	fmt.Println("output pulse width [ps] per model:")
	fmt.Printf("%10s %12s %12s %12s\n", "in [ps]", "hybrid", "inertial", "exp-channel")
	for _, wPs := range []float64{5, 10, 15, 20, 25, 30, 35, 40, 50, 70, 100, 150, 250} {
		w := hybriddelay.Ps(wPs)
		t0 := hybriddelay.Ps(500)
		// float64() rounds the inlined Ps product before the sum, so no
		// platform fuses the two into one multiply-add.
		a := hybriddelay.NewTrace(false, t0, t0+float64(w))
		b := hybriddelay.NewTrace(false)

		hm, err := models.HM.Apply([]hybriddelay.Trace{a, b}, 5e-9)
		if err != nil {
			log.Fatal(err)
		}
		iner := models.Inertial.Apply(models.Gate.Logic, a, b)
		exp := hybriddelay.ApplyDelay(hybriddelay.NOR2Trace(a, b), models.Exp,
			hybriddelay.PolicyInvolution)

		fmt.Printf("%10.0f %12s %12s %12s\n", wPs, widthOf(hm), widthOf(iner), widthOf(exp))
	}

	fmt.Println("\nNote the hybrid and exp channels shrink marginal pulses smoothly;")
	fmt.Println("the inertial model jumps from 'filtered' to (nearly) full width —")
	fmt.Println("the discontinuity that makes classic models unfaithful for glitch")
	fmt.Println("propagation (paper §I and [Függer et al. 2020]).")
}

func widthOf(t hybriddelay.Trace) string {
	switch t.NumEvents() {
	case 0:
		return "filtered"
	case 2:
		return fmt.Sprintf("%.1f", hybriddelay.ToPs(t.Events[1].Time-t.Events[0].Time))
	default:
		return fmt.Sprintf("%d events", t.NumEvents())
	}
}
