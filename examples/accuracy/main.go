// accuracy runs the paper's §VI evaluation pipeline on one waveform
// configuration: random traces through the analog golden gate and
// through four digital delay models, scored by deviation area (Fig. 7).
//
// Run with:
//
//	go run ./examples/accuracy
package main

import (
	"context"
	"fmt"
	"log"

	"hybriddelay"
)

func main() {
	bp := hybriddelay.DefaultBenchParams()
	bp.MaxStep = 8e-12

	// The paper's first configuration: 100/50 - LOCAL (short pulses,
	// heavy MIS activity). Reduced size for a quick demo; crank
	// Transitions/seeds for paper-scale runs.
	cfg := hybriddelay.PaperConfigs()[0]
	cfg.Transitions = 200

	// The session measures the golden gate's characteristic delays and
	// parametrizes the full model set: per-arc inertial baseline, IDM
	// exp-channel (pure delay 20 ps as in the paper), hybrid model with
	// automatic pure delay, and the no-pure-delay ablation.
	out, err := hybriddelay.NewSession(hybriddelay.SessionOptions{}).Evaluate(context.Background(), hybriddelay.GateJob{
		Gate: "nor2", Params: &bp,
		Configs: []hybriddelay.TraceConfig{cfg}, Seeds: []int64{1, 2, 3, 4, 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid model: %s\n", out.Models.HM)
	fmt.Printf("ablation    : %s\n\n", out.Models.HMNoDMin)

	res := out.Gate[0]
	fmt.Printf("configuration %s, %d golden output transitions\n", cfg.Name(), res.GoldenEv)
	fmt.Println("normalized deviation area (inertial = 1, lower is better):")
	for _, name := range []string{"inertial", "exp-channel", "hm", "hm-no-dmin"} {
		fmt.Printf("  %-12s %6.3f\n", name, res.Normalized[name])
	}
	fmt.Println("\nexpected shape (paper Fig. 7): the hybrid model with pure delay")
	fmt.Println("clearly beats both the inertial baseline and the exp-channel for")
	fmt.Println("these short, MIS-heavy pulses.")
}
