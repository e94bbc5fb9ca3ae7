package hybrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/trace"
)

// lead is a settling prefix before the first stimulus event.
const lead = 500e-12

// TestChannelMatchesFallingDelay: for isolated rising input pairs the
// channel's output fall time reproduces FallingDelay(Delta) exactly.
func TestChannelMatchesFallingDelay(t *testing.T) {
	p := TableI()
	for _, dd := range []float64{-120e-12, -40e-12, -5e-12, 0, 5e-12, 40e-12, 120e-12} {
		tA := lead
		tB := lead + dd
		if dd < 0 {
			tA, tB = lead-dd, lead
		}
		a := trace.New(false, []trace.Event{{Time: tA, Value: true}})
		b := trace.New(false, []trace.Event{{Time: tB, Value: true}})
		out, err := ApplyNOR(p, a, b, 3e-9, p.Supply.VDD)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Initial || out.NumEvents() != 1 || out.Events[0].Value {
			t.Fatalf("Delta=%g: output trace %+v", dd, out.Events)
		}
		want, err := p.FallingDelay(dd)
		if err != nil {
			t.Fatal(err)
		}
		got := out.Events[0].Time - math.Min(tA, tB)
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("Delta=%g: channel delay %g, FallingDelay %g", dd, got, want)
		}
	}
}

// TestChannelMatchesRisingDelay: isolated falling input pairs starting
// from mode (1,1) with a prescribed V_N reproduce RisingDelay.
func TestChannelMatchesRisingDelay(t *testing.T) {
	p := TableI()
	for _, vn := range []float64{0, p.Supply.VDD / 2, p.Supply.VDD} {
		for _, dd := range []float64{-120e-12, -30e-12, 0, 30e-12, 120e-12} {
			tA := lead
			tB := lead + dd
			if dd < 0 {
				tA, tB = lead-dd, lead
			}
			a := trace.New(true, []trace.Event{{Time: tA, Value: false}})
			b := trace.New(true, []trace.Event{{Time: tB, Value: false}})
			out, err := ApplyNOR(p, a, b, 3e-9, vn)
			if err != nil {
				t.Fatal(err)
			}
			if out.Initial || out.NumEvents() != 1 || !out.Events[0].Value {
				t.Fatalf("vn=%g Delta=%g: output trace %+v", vn, dd, out.Events)
			}
			want, err := p.RisingDelayFrom(dd, vn)
			if err != nil {
				t.Fatal(err)
			}
			got := out.Events[0].Time - math.Max(tA, tB)
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("vn=%g Delta=%g: channel delay %g, RisingDelay %g", vn, dd, got, want)
			}
		}
	}
}

// TestChannelOutputAlwaysValid: random stimuli never produce malformed
// output traces (sorted, alternating).
func TestChannelOutputAlwaysValid(t *testing.T) {
	p := TableI()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func() trace.Trace {
			var ev []trace.Event
			tm := lead
			v := false
			for i := 0; i < rng.Intn(25); i++ {
				tm += (10 + rng.ExpFloat64()*120) * 1e-12
				v = !v
				ev = append(ev, trace.Event{Time: tm, Value: v})
			}
			return trace.New(false, ev)
		}
		a, b := gen(), gen()
		out, err := ApplyNOR(p, a, b, 20e-9, p.Supply.VDD)
		if err != nil {
			return false
		}
		return out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestChannelSettles: after inputs settle, the digital output value
// equals the NOR of the final input values (long settle window).
func TestChannelSettles(t *testing.T) {
	p := TableI()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func() trace.Trace {
			var ev []trace.Event
			tm := lead
			v := false
			for i := 0; i < rng.Intn(12); i++ {
				tm += (150 + rng.Float64()*300) * 1e-12 // wide spacing
				v = !v
				ev = append(ev, trace.Event{Time: tm, Value: v})
			}
			return trace.New(false, ev)
		}
		a, b := gen(), gen()
		out, err := ApplyNOR(p, a, b, 40e-9, p.Supply.VDD)
		if err != nil {
			return false
		}
		want := !(a.Final() || b.Final())
		return out.Final() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestChannelShortPulseFiltered: an input pulse much shorter than the
// gate delay leaves no output transition (the trajectory never reaches
// the threshold).
func TestChannelShortPulseFiltered(t *testing.T) {
	p := TableI()
	a := trace.New(false, []trace.Event{
		{Time: lead, Value: true},
		{Time: lead + 5e-12, Value: false},
	})
	out, err := ApplyNOR(p, a, trace.Trace{Initial: false}, 5e-9, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 0 {
		t.Errorf("5 ps pulse produced output events: %+v", out.Events)
	}
}

// TestChannelLongPulseTransmitted: a pulse much longer than the delay
// passes with two transitions.
func TestChannelLongPulseTransmitted(t *testing.T) {
	p := TableI()
	a := trace.New(false, []trace.Event{
		{Time: lead, Value: true},
		{Time: lead + 500e-12, Value: false},
	})
	out, err := ApplyNOR(p, a, trace.Trace{Initial: false}, 5e-9, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 2 {
		t.Fatalf("long pulse produced %+v", out.Events)
	}
	if out.Events[0].Value || !out.Events[1].Value {
		t.Error("pulse polarity wrong")
	}
}

// TestChannelVNHistory: the channel carries V_N across mode (1,1)
// periods. If the gate passed through (0,0) before entering (1,1), V_N
// is VDD and the next rising output is faster than from the worst case.
func TestChannelVNHistory(t *testing.T) {
	p := TableI()
	// Cycle: (0,0) -> both rise at t1 -> (1,1) -> both fall at t2.
	t1, t2 := lead, lead+600e-12
	a := trace.New(false, []trace.Event{{Time: t1, Value: true}, {Time: t2, Value: false}})
	b := trace.New(false, []trace.Event{{Time: t1, Value: true}, {Time: t2, Value: false}})
	out, err := ApplyNOR(p, a, b, 5e-9, 0 /* vn0 irrelevant: gate starts in (0,0) */)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 2 {
		t.Fatalf("events: %+v", out.Events)
	}
	riseDelay := out.Events[1].Time - t2
	fromVDD, err := p.RisingDelayFrom(0, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	fromGND, err := p.RisingDelayFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(riseDelay-fromVDD) > 1e-15 {
		t.Errorf("rise delay %g, want %g (V_N = VDD carried from (0,0) history)", riseDelay, fromVDD)
	}
	if math.Abs(riseDelay-fromGND) < 1e-15 {
		t.Error("channel ignored the V_N history")
	}
}

// TestChannelDeferredCrossingSurvives is the regression test for the
// pure-delay window bug: a threshold crossing scheduled inside
// [now, now+DMin) must survive a later input event (the event only
// changes the trajectory after its own effective time).
func TestChannelDeferredCrossingSurvives(t *testing.T) {
	p := TableI() // DMin = 18 ps
	// Both inputs high; B falls, then A falls; output rises; B rises
	// again just before the (deferred) crossing would be cancelled.
	a := trace.New(true, []trace.Event{{Time: 865.9e-12, Value: false}, {Time: 973.8e-12, Value: true}})
	b := trace.New(true, []trace.Event{{Time: 794.9e-12, Value: false}, {Time: 952.6e-12, Value: true}})
	out, err := ApplyNOR(p, a, b, 3e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The output must both rise and fall back: the pulse is wide enough.
	if out.NumEvents() != 2 {
		t.Fatalf("expected rise+fall, got %+v", out.Events)
	}
	if !out.Events[0].Value || out.Events[1].Value {
		t.Errorf("polarities wrong: %+v", out.Events)
	}
}

// TestChannelSimultaneousEdges: both inputs switching at the identical
// timestamp behave like Delta = 0.
func TestChannelSimultaneousEdges(t *testing.T) {
	p := TableI()
	a := trace.New(false, []trace.Event{{Time: lead, Value: true}})
	b := trace.New(false, []trace.Event{{Time: lead, Value: true}})
	out, err := ApplyNOR(p, a, b, 3e-9, p.Supply.VDD)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.FallingDelay(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 1 {
		t.Fatalf("events: %+v", out.Events)
	}
	if got := out.Events[0].Time - lead; math.Abs(got-want) > 1e-15 {
		t.Errorf("simultaneous delay %g, want %g", got, want)
	}
}

// TestChannelStateAccessors: the channel's future starts in the mode
// and steady state of its initial inputs.
func TestChannelStateAccessors(t *testing.T) {
	p := TableI()
	sim := dtsim.NewSimulator()
	na := dtsim.NewNet("a", false)
	nb := dtsim.NewNet("b", false)
	no := dtsim.NewNet("o", false)
	ch, err := NewChannel(sim, p, na, nb, no, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := ch.future.segs[0].mode; m != Mode00 {
		t.Errorf("initial mode %v", m)
	}
	st := ch.future.At(0)
	if math.Abs(st[0]-p.Supply.VDD) > 1e-12 || math.Abs(st[1]-p.Supply.VDD) > 1e-12 {
		t.Errorf("initial state %v", st)
	}
	if !no.Value() {
		t.Error("NOR of (0,0) must start high")
	}
}

// TestApplyNORRejectsInvalidParams: validation propagates.
func TestApplyNORRejectsInvalidParams(t *testing.T) {
	p := TableI()
	p.R3 = -1
	if _, err := ApplyNOR(p, trace.Trace{}, trace.Trace{}, 1e-9, 0); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestApplyNORAllocs pins the channel's allocation budget on the
// stimulus of BenchmarkChannelOverheadHybrid (the paper's first
// configuration at 400 transitions). The mode systems are prepared once
// per channel and the crossing search allocates nothing; what remains
// is set-up and the doubling growth of the event slab and the recorded
// output.
func TestApplyNORAllocs(t *testing.T) {
	cfg := gen.PaperConfigs()[0]
	cfg.Transitions = 400
	in, err := gen.Traces(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	until := gen.Horizon(in, 600e-12)
	p := TableI()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ApplyNOR(p, in[0], in[1], until, 0.8); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per ApplyNOR", allocs)
	if allocs > 35 {
		t.Errorf("ApplyNOR allocates %.0f times per run, budget 35", allocs)
	}
}
