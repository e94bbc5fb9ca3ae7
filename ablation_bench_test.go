package hybriddelay

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the golden simulator's integration scheme, the integrator step bound,
// the tail-weighted parametrization, and the NAND duality extension.
// Each reports the quantity the choice affects as a benchmark metric.

import (
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/waveform"
)

// BenchmarkAblationIntegrationMethod compares trapezoidal against
// backward-Euler integration in the golden bench at the same step bound:
// the reported metric is the shift of the falling SIS delay caused by
// the first-order method's numerical damping (trapezoidal is the default
// because this shift is pure integration error).
func BenchmarkAblationIntegrationMethod(b *testing.B) {
	delay := func(method spice.IntegrationMethod, maxStep float64) float64 {
		p := nor.DefaultParams()
		p.MaxStep = maxStep
		p.Method = method
		bench, err := NewBench(p)
		if err != nil {
			b.Fatal(err)
		}
		d, err := bench.Delay(bench.Pair(0, true))
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	var trap, be, ref float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trap = delay(spice.Trapezoidal, 8e-12)
		be = delay(spice.BackwardEuler, 8e-12)
		ref = delay(spice.Trapezoidal, 1e-12)
	}
	b.ReportMetric((trap-ref)/1e-15, "trap_err_fs")
	b.ReportMetric((be-ref)/1e-15, "be_err_fs")
}

// BenchmarkAblationFitWeights compares the uniform least-squares fit
// against the paper-mimicking tail-weighted fit: the metric is the
// rise(+inf) SIS error of each variant in ps (tail weighting trades the
// unreachable Delta=0 rising point for SIS accuracy).
func BenchmarkAblationFitWeights(b *testing.B) {
	_, target, _ := setupGolden(b)
	supply := waveform.DefaultSupply()
	var uniformErr, tailErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, repU, err := hybrid.FitCharacteristic(target, supply, &hybrid.FitOptions{DMin: -1})
		if err != nil {
			b.Fatal(err)
		}
		_, repT, err := hybrid.FitCharacteristic(target, supply, &hybrid.FitOptions{
			DMin: -1, Weights: []float64{3, 1, 3, 3, 1, 3},
		})
		if err != nil {
			b.Fatal(err)
		}
		uniformErr = waveform.ToPs(repU.Achieved.RiseMinusInf - target.RiseMinusInf)
		tailErr = waveform.ToPs(repT.Achieved.RiseMinusInf - target.RiseMinusInf)
	}
	b.ReportMetric(uniformErr, "uniform_riseinf_err_ps")
	b.ReportMetric(tailErr, "tail_riseinf_err_ps")
}

// BenchmarkAblationScanDensity probes the trajectory crossing search:
// the falling delay must be invariant under the scan density (Brent
// polishing dominates the accuracy), and the metric reports the query
// cost.
func BenchmarkAblationScanDensity(b *testing.B) {
	p := hybrid.TableI()
	var d float64
	for i := 0; i < b.N; i++ {
		var err error
		d, err = p.FallingDelay(7e-12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(waveform.ToPs(d), "delay_ps")
}

// BenchmarkNANDDelayQuery measures the duality-mapped NAND delay query
// (the extension's cost is one parameter mirror on top of the NOR path).
func BenchmarkNANDDelayQuery(b *testing.B) {
	n := hybrid.NANDFromDual(hybrid.TableI())
	for i := 0; i < b.N; i++ {
		if _, err := n.FallingDelay(10e-12, n.Supply.VDD); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNANDGoldenSweep measures the analog NAND bench (the
// validation substrate of the duality extension).
func BenchmarkNANDGoldenSweep(b *testing.B) {
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	bench, err := gate.NAND2.NewBench(p)
	if err != nil {
		b.Fatal(err)
	}
	var c Characteristic
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := bench.Measure()
		if err != nil {
			b.Fatal(err)
		}
		c = m.Pair
	}
	b.ReportMetric(100*(c.RiseZero-c.RiseMinusInf)/c.RiseMinusInf, "nand_risedip_%")
}
