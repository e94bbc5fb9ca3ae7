package hybriddelay

// The benchmark harness regenerates every table and figure of the paper
// and reports the headline numbers as custom benchmark metrics, so that
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. Figures that need the analog golden
// reference share one measurement through lazy setup. Absolute runtimes
// are this machine's; the paper-facing quantities are the ReportMetric
// values (delays in ps, normalized deviation areas).

import (
	"context"
	"sync"
	"testing"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/la"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

var benchSetup struct {
	once   sync.Once
	err    error
	p      nor.Params
	bench  *Bench
	target hybrid.Characteristic
	models eval.Models
}

func setupGolden(b *testing.B) (*Bench, hybrid.Characteristic, eval.Models) {
	b.Helper()
	benchSetup.once.Do(func() {
		p := nor.DefaultParams()
		p.MaxStep = 8e-12
		bench, err := NewBench(p)
		if err != nil {
			benchSetup.err = err
			return
		}
		target, err := MeasureCharacteristic(bench)
		if err != nil {
			benchSetup.err = err
			return
		}
		models, err := BuildModels(target, p.Supply, 20e-12)
		if err != nil {
			benchSetup.err = err
			return
		}
		benchSetup.p = p
		benchSetup.bench = bench
		benchSetup.target = target
		benchSetup.models = models
	})
	if benchSetup.err != nil {
		b.Fatal(benchSetup.err)
	}
	return benchSetup.bench, benchSetup.target, benchSetup.models
}

// evalSession returns a session on the given worker budget that
// already holds the NOR2 operating point of setupGolden, so the
// benchmarks time evaluation, not parametrization.
func evalSession(b *testing.B, workers int) *Session {
	setupGolden(b)
	s := NewSession(SessionOptions{Workers: workers})
	if _, err := s.ParamCache().OperatingPoint(context.Background(), gate.NOR2, benchSetup.p, DefaultSessionExpDMin); err != nil {
		b.Fatal(err)
	}
	return s
}

// evalNOR2 evaluates configs over seeds as one NOR2 gate job at the
// setupGolden operating point; noCache keeps every golden transient
// cold.
func evalNOR2(b *testing.B, s *Session, configs []gen.Config, seeds []int64, noCache bool) []eval.RunResult {
	b.Helper()
	res, err := s.Evaluate(context.Background(), GateJob{
		Params: &benchSetup.p, Configs: configs, Seeds: seeds, NoCache: noCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Gate
}

// goldenSweep samples the bench's pair-probe delays over the
// separations: falling outputs under rising inputs, rising outputs
// (from V_N = GND) under falling ones.
func goldenSweep(b *testing.B, bench *Bench, deltas []float64, rising bool) []float64 {
	b.Helper()
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		var err error
		if out[i], err = bench.Delay(bench.Pair(d, rising)); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// hmParams extracts the fitted 2-input NOR parameters from the default
// gate's model set.
func hmParams(m gate.Model) hybrid.Params { return m.(gate.NOR2Model).P }

// BenchmarkFig2Waveforms regenerates the analog transition waveforms of
// Fig. 2a/2c (one falling and one rising transient per iteration).
func BenchmarkFig2Waveforms(b *testing.B) {
	bench, _, _ := setupGolden(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Waveforms(bench.Pair(10e-12, true)); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Waveforms(bench.Pair(40e-12, false)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2FallingSweep regenerates the golden delta_fall(Delta)
// series of Fig. 2b and reports the MIS speed-up magnitude.
func BenchmarkFig2FallingSweep(b *testing.B) {
	bench, target, _ := setupGolden(b)
	deltas := []float64{-60e-12, -40e-12, -20e-12, 0, 20e-12, 40e-12, 60e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		goldenSweep(b, bench, deltas, true)
	}
	b.ReportMetric(100*(target.FallZero-target.FallMinusInf)/target.FallMinusInf, "misdip_%")
}

// BenchmarkFig2RisingSweep regenerates the golden delta_rise(Delta)
// series of Fig. 2d and reports the MIS slow-down magnitude.
func BenchmarkFig2RisingSweep(b *testing.B) {
	bench, target, _ := setupGolden(b)
	deltas := []float64{-60e-12, -40e-12, -20e-12, 0, 20e-12, 40e-12, 60e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		goldenSweep(b, bench, deltas, false)
	}
	b.ReportMetric(100*(target.RiseZero-target.RiseMinusInf)/target.RiseMinusInf, "misbump_%")
}

// BenchmarkFig4Trajectories evaluates the four mode trajectories of
// Fig. 4 on a 150-point grid.
func BenchmarkFig4Trajectories(b *testing.B) {
	p := hybrid.TableI()
	vdd := p.Supply.VDD
	cases := []struct {
		mode hybrid.Mode
		v0   la.Vec2
	}{
		{hybrid.Mode00, la.Vec2{}},
		{hybrid.Mode01, la.Vec2{X: vdd, Y: vdd}},
		{hybrid.Mode10, la.Vec2{X: vdd, Y: vdd}},
		{hybrid.Mode11, la.Vec2{X: vdd / 2, Y: vdd}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			tr, err := p.NewTrajectory(c.v0, []hybrid.Phase{{Start: 0, Mode: c.mode}})
			if err != nil {
				b.Fatal(err)
			}
			tr.Sample(0, 150e-12, 150)
		}
	}
}

// BenchmarkTable1Fit regenerates the Table I parametrization (a full
// least-squares fit per iteration) and reports the auto pure delay.
func BenchmarkTable1Fit(b *testing.B) {
	_, target, _ := setupGolden(b)
	supply := waveform.DefaultSupply()
	var dmin float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := hybrid.FitCharacteristic(target, supply, nil)
		if err != nil {
			b.Fatal(err)
		}
		dmin = rep.DMin
	}
	b.ReportMetric(waveform.ToPs(dmin), "dmin_ps")
}

// BenchmarkFig5 regenerates the hybrid falling MIS curve of Fig. 5 and
// reports the worst-case deviation from the golden curve.
func BenchmarkFig5(b *testing.B) {
	bench, target, models := setupGolden(b)
	deltas := []float64{-60e-12, -30e-12, -10e-12, 0, 10e-12, 30e-12, 60e-12}
	golden := goldenSweep(b, bench, deltas, true)
	_ = target
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := hmParams(models.HM).FallingSweep(deltas)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for j := range pts {
			d := pts[j].Delay - golden[j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(waveform.ToPs(worst), "worst_err_ps")
}

// BenchmarkFig6 regenerates the three rising MIS curves of Fig. 6.
func BenchmarkFig6(b *testing.B) {
	_, _, models := setupGolden(b)
	deltas := []float64{-90e-12, -45e-12, 0, 45e-12, 90e-12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vn := range []hybrid.VNInitial{hybrid.VNGround, hybrid.VNHalf, hybrid.VNSupply} {
			if _, err := hmParams(models.HM).RisingSweep(deltas, vn); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fig7Config runs one (reduced-size) Fig. 7 configuration per iteration
// on one worker and reports the normalized deviation areas as metrics.
func fig7Config(b *testing.B, cfgIndex int) {
	s := evalSession(b, 1)
	cfg := gen.PaperConfigs()[cfgIndex]
	cfg.Transitions /= 4 // keep a single iteration in the ~1 s range
	var res eval.RunResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = evalNOR2(b, s, []gen.Config{cfg}, []int64{1, 2}, true)[0]
	}
	b.ReportMetric(res.Normalized[eval.ModelExp], "exp_norm")
	b.ReportMetric(res.Normalized[eval.ModelHM], "hm_norm")
	b.ReportMetric(res.Normalized[eval.ModelHMNoDMin], "hm0_norm")
}

// BenchmarkFig7Accuracy regenerates the deviation-area comparison of
// Fig. 7, one sub-benchmark per waveform configuration.
func BenchmarkFig7Accuracy(b *testing.B) {
	names := []string{"local_100_50", "local_200_100", "global_2000_1000", "global_5000_5"}
	for i, name := range names {
		i := i
		b.Run(name, func(b *testing.B) { fig7Config(b, i) })
	}
}

// BenchmarkFig8 regenerates the pure-delay ablation curves of Fig. 8 and
// reports the Delta = 0 error of the ablated model.
func BenchmarkFig8(b *testing.B) {
	bench, _, models := setupGolden(b)
	goldenZero := goldenSweep(b, bench, []float64{0}, true)[0]
	deltas := []float64{-60e-12, -30e-12, 0, 30e-12, 60e-12}
	var zeroErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, err := hmParams(models.HM).FallingSweep(deltas)
		if err != nil {
			b.Fatal(err)
		}
		without, err := hmParams(models.HMNoDMin).FallingSweep(deltas)
		if err != nil {
			b.Fatal(err)
		}
		_ = with
		zeroErr = without[2].Delay - goldenZero
	}
	b.ReportMetric(waveform.ToPs(zeroErr), "hm0_zero_err_ps")
}

// BenchmarkCharlieFormulas evaluates the closed-form characteristic
// delay expressions (8)-(12) and reports the worst deviation from the
// exact solver in femtoseconds.
func BenchmarkCharlieFormulas(b *testing.B) {
	p := hybrid.TableI()
	exact, err := p.Characteristic()
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.CharlieCharacteristic()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		e := exact.AsSlice()
		g := f.AsSlice()
		for j := range e {
			d := g[j] - e[j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst/1e-15, "worst_err_fs")
}

// benchTrace builds a canonical stimulus pair for the channel-overhead
// comparison (§VI's ~6% runtime claim).
func benchTrace() (trace.Trace, trace.Trace, float64) {
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = 400
	inputs, err := gen.Traces(cfg, 7)
	if err != nil {
		panic(err)
	}
	until := gen.Horizon(inputs, 600e-12)
	return inputs[0], inputs[1], until
}

// BenchmarkChannelOverheadInertial measures the per-arc inertial model.
func BenchmarkChannelOverheadInertial(b *testing.B) {
	_, _, models := setupGolden(b)
	a, tb, _ := benchTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		models.Inertial.Apply(models.Gate.Logic, a, tb)
	}
}

// BenchmarkChannelOverheadExp measures the output-placed exp-channel.
func BenchmarkChannelOverheadExp(b *testing.B) {
	_, _, models := setupGolden(b)
	a, tb, _ := benchTrace()
	ideal := trace.NOR2(a, tb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtsim.ApplyDelay(ideal, models.Exp)
	}
}

// BenchmarkChannelOverheadHybrid measures the full hybrid NOR channel.
func BenchmarkChannelOverheadHybrid(b *testing.B) {
	_, _, models := setupGolden(b)
	a, tb, until := benchTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.ApplyNOR(hmParams(models.HM), a, tb, until, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoldenTransient measures one analog golden run of the same
// stimulus (the cost the digital models exist to avoid).
func BenchmarkGoldenTransient(b *testing.B) {
	bench, _, _ := setupGolden(b)
	a, tb, until := benchTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Golden([]trace.Trace{a, tb}, until); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFallingDelayQuery measures a single MIS delay query on the
// hybrid model (the operation a timing engine performs per event).
func BenchmarkFallingDelayQuery(b *testing.B) {
	p := hybrid.TableI()
	for i := 0; i < b.N; i++ {
		if _, err := p.FallingDelay(10e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRisingDelayQuery is the rising-side counterpart.
func BenchmarkRisingDelayQuery(b *testing.B) {
	p := hybrid.TableI()
	for i := 0; i < b.N; i++ {
		if _, err := p.RisingDelay(-10e-12, hybrid.VNGround); err != nil {
			b.Fatal(err)
		}
	}
}
