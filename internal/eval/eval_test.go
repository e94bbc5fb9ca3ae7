package eval

import (
	"math"
	"testing"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// evalBench builds the golden bench with a coarser integrator step for
// test speed (delay error well below the deviation areas measured).
func evalBench(t *testing.T) gate.Bench {
	t.Helper()
	p := nor.DefaultParams()
	p.MaxStep = 8e-12
	b, err := gate.NOR2.NewBench(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func measuredTarget(t *testing.T, b gate.Bench) hybrid.Characteristic {
	t.Helper()
	meas, err := b.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return meas.Pair
}

// nor2Models parametrizes the NOR2 model set from a measured
// characteristic with the paper's 20 ps exp-channel pure delay.
func nor2Models(t *testing.T, target hybrid.Characteristic, supply waveform.Supply) Models {
	t.Helper()
	m, err := gate.NOR2.BuildModels(gate.Measurement{Pair: target, Arcs: gate.NOR2Arcs(target)}, supply, 20e-12)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildModels(t *testing.T) {
	b := evalBench(t)
	target := measuredTarget(t, b)
	m := nor2Models(t, target, b.Params().Supply)
	// Inertial arcs carry the SIS delays (pin 0 = A, pin 1 = B).
	if m.Inertial[1].Fall != target.FallMinusInf || m.Inertial[0].Fall != target.FallPlusInf {
		t.Error("inertial arc mapping wrong")
	}
	// Exp channel hits the SIS means at infinity.
	riseSIS := 0.5 * (target.RiseMinusInf + target.RisePlusInf)
	if math.Abs(m.Exp.DelayUpInf()-riseSIS) > 1e-18 {
		t.Errorf("exp delta_up(inf) = %g, want %g", m.Exp.DelayUpInf(), riseSIS)
	}
	if m.Gate.Name() != "nor2" {
		t.Errorf("default models built for gate %q, want nor2", m.Gate.Name())
	}
	// The hybrid fit carries a positive pure delay, the ablation none.
	hm := m.HM.(gate.NOR2Model).P
	hm0 := m.HMNoDMin.(gate.NOR2Model).P
	if hm.DMin <= 0 {
		t.Errorf("HM pure delay = %g, want > 0", hm.DMin)
	}
	if hm0.DMin != 0 {
		t.Errorf("HM ablation pure delay = %g, want 0", hm0.DMin)
	}
	if err := hm.Validate(); err != nil {
		t.Error(err)
	}
	if err := hm0.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGoldenNORRejectsHighInputs(t *testing.T) {
	b := evalBench(t)
	if _, err := b.Golden([]trace.Trace{{Initial: true}, {}}, 1e-9); err == nil {
		t.Error("high initial input accepted")
	}
}

// TestGoldenNORSingleEdge: an isolated rising edge on A produces a
// falling golden output with the SIS delay.
func TestGoldenNORSingleEdge(t *testing.T) {
	b := evalBench(t)
	a := trace.New(false, []trace.Event{{Time: 1e-9, Value: true}})
	out, err := b.Golden([]trace.Trace{a, {Initial: false}}, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Initial || out.NumEvents() != 1 || out.Events[0].Value {
		t.Fatalf("golden trace %+v", out.Events)
	}
	delay := out.Events[0].Time - 1e-9
	want := measuredTarget(t, b).FallPlusInf // A-caused SIS fall
	if math.Abs(delay-want) > 1.5e-12 {
		t.Errorf("golden SIS delay %g, want %g", delay, want)
	}
}

// TestEvaluatePipeline runs a reduced Fig. 7 evaluation and checks the
// paper's qualitative claims on every configuration class.
func TestEvaluatePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	b := evalBench(t)
	m := nor2Models(t, measuredTarget(t, b), b.Params().Supply)
	src := NewGateBenchSource(b)

	short := gen.PaperConfigs()[0]
	short.Transitions = 120
	resShort, err := runGate(src, m, short, []int64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resShort.Normalized[ModelInertial] != 1 {
		t.Error("inertial normalization broken")
	}
	// Short pulses: the hybrid model with pure delay clearly beats the
	// inertial baseline ("less than half", §VI) and the exp-channel.
	if hm := resShort.Normalized[ModelHM]; hm > 0.6 {
		t.Errorf("HM normalized deviation = %.2f for short pulses, want < 0.6", hm)
	}
	if resShort.Normalized[ModelHM] >= resShort.Normalized[ModelExp] {
		t.Errorf("HM (%.2f) should beat exp (%.2f) for short pulses",
			resShort.Normalized[ModelHM], resShort.Normalized[ModelExp])
	}

	broad := gen.PaperConfigs()[2] // 2000/1000 GLOBAL
	broad.Transitions = 120
	resBroad, err := runGate(src, m, broad, []int64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Broad pulses: the exp channel is clearly worse than inertial
	// (output-placed channel cannot attribute the causing input), while
	// the hybrid model stays in the inertial ballpark.
	if e := resBroad.Normalized[ModelExp]; e < 1.1 {
		t.Errorf("exp normalized deviation = %.2f for broad pulses, want > 1.1 (paper ~1.6)", e)
	}
	if hm := resBroad.Normalized[ModelHM]; hm > 1.4 {
		t.Errorf("HM normalized deviation = %.2f for broad pulses, want ~1", hm)
	}
	if resShort.GoldenEv == 0 || resBroad.GoldenEv == 0 {
		t.Error("golden runs produced no events")
	}
}

func TestEvaluateValidation(t *testing.T) {
	b := evalBench(t)
	m := nor2Models(t, measuredTarget(t, b), b.Params().Supply)
	src := NewGateBenchSource(b)
	cfg := gen.PaperConfigs()[0]
	if _, err := runGate(src, m, cfg, nil, nil); err == nil {
		t.Error("empty seed list accepted")
	}
	cfg.Inputs = 3
	cfg.Transitions = 9
	if _, err := runGate(src, m, cfg, []int64{1}, nil); err == nil {
		t.Error("3-input config accepted by the NOR pipeline")
	}
}

// TestRunModelsProducesAllModels: every model name appears with a valid
// trace.
func TestRunModelsProducesAllModels(t *testing.T) {
	b := evalBench(t)
	m := nor2Models(t, measuredTarget(t, b), b.Params().Supply)
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = 40
	inputs, err := gen.Traces(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	until := gen.Horizon(inputs, 600*waveform.Pico)
	outs, err := RunModels(m, inputs, until)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ModelNames {
		tr, ok := outs[name]
		if !ok {
			t.Errorf("model %s missing from results", name)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("model %s produced an invalid trace: %v", name, err)
		}
	}
}
