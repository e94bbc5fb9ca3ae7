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
	if m := ch.core.future.segs[0].mode; m != Mode00 {
		t.Errorf("initial mode %v", m)
	}
	st := ch.core.future.At(0)
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
// configuration at 400 transitions). The channel core is recycled, the
// mode systems are prepared once per call and the crossing search
// allocates nothing; what remains is the trajectory and the doubling
// growth of the output.
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
	if allocs > 11 {
		t.Errorf("ApplyNOR allocates %.0f times per run, budget 11", allocs)
	}
}

// applyNORSim is ApplyNOR through the event-driven Channel inside a
// dtsim.Simulator driven by both traces: the reference ApplyNOR's
// offline loop must reproduce bit for bit.
func applyNORSim(p Params, a, b trace.Trace, until, vn0 float64) (trace.Trace, error) {
	sim := dtsim.NewSimulator()
	na := dtsim.NewNet("a", a.Initial)
	nb := dtsim.NewNet("b", b.Initial)
	no := dtsim.NewNet("o", false)
	no.Record()
	if _, err := NewChannel(sim, p, na, nb, no, vn0); err != nil {
		return trace.Trace{}, err
	}
	if err := dtsim.Drive(sim, na, a); err != nil {
		return trace.Trace{}, err
	}
	if err := dtsim.Drive(sim, nb, b); err != nil {
		return trace.Trace{}, err
	}
	if err := sim.Run(until); err != nil {
		return trace.Trace{}, err
	}
	return no.Trace(), nil
}

// offlineStimulus draws two input traces of up to n events each from
// seed. Gaps are zero (ties), shorter than dmin, shorter than a gate
// delay or long, and a quarter of the events repeat their input's
// value. flags&1 copies some of a's times into b (ties across inputs),
// flags&2 swaps neighbouring events (unsorted traces), and flags&4
// puts the time special at a random place (flags&8 and flags&16 are
// read by the fuzz target).
func offlineStimulus(seed int64, n int, flags uint8, dmin, special float64) (a, b trace.Trace) {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]trace.Trace, 2)
	for i := range ins {
		ins[i].Initial = rng.Intn(2) == 1
		v, tm := ins[i].Initial, 0.0
		for j := rng.Intn(n + 1); j > 0; j-- {
			switch rng.Intn(4) {
			case 0:
			case 1:
				tm += rng.Float64() * dmin
			case 2:
				tm += rng.Float64() * 40e-12
			default:
				tm += 50e-12 + rng.Float64()*300e-12
			}
			if rng.Intn(4) > 0 {
				v = !v
			}
			ins[i].Events = append(ins[i].Events, trace.Event{Time: tm, Value: v})
		}
	}
	a, b = ins[0], ins[1]
	if flags&1 != 0 {
		for j := range b.Events {
			if j < len(a.Events) && rng.Intn(2) == 0 {
				b.Events[j].Time = a.Events[j].Time
			}
		}
	}
	for _, tr := range ins {
		if flags&2 != 0 && len(tr.Events) > 1 {
			k := rng.Intn(len(tr.Events) - 1)
			tr.Events[k], tr.Events[k+1] = tr.Events[k+1], tr.Events[k]
		}
	}
	if i := rng.Intn(2); flags&4 != 0 {
		if len(ins[i].Events) == 0 {
			i = 1 - i
		}
		if evs := ins[i].Events; len(evs) > 0 {
			evs[rng.Intn(len(evs))].Time = special
		}
	}
	return a, b
}

// inputAtCrossing adds to a a change of its value at the time of the
// first output event of the reference run on (a, b), so that an input
// event and the pending output event fall at the same time.
func inputAtCrossing(p Params, a, b trace.Trace, vn0 float64) trace.Trace {
	out, err := applyNORSim(p, a, b, math.Inf(1), vn0)
	if err != nil || len(out.Events) == 0 || !trace.Sorted(a.Events) {
		return a
	}
	tc := out.Events[0].Time
	k, v := 0, a.Initial
	for ; k < len(a.Events) && a.Events[k].Time <= tc; k++ {
		v = a.Events[k].Value
	}
	evs := append(append(a.Events[:k:k], trace.Event{Time: tc, Value: !v}), a.Events[k:]...)
	return trace.Trace{Initial: a.Initial, Events: evs}
}

// sameTraceBits reports whether two traces have the same initial value
// and events, times compared bit for bit.
func sameTraceBits(x, y trace.Trace) bool {
	if x.Initial != y.Initial || len(x.Events) != len(y.Events) {
		return false
	}
	for i, e := range x.Events {
		if math.Float64bits(e.Time) != math.Float64bits(y.Events[i].Time) || e.Value != y.Events[i].Value {
			return false
		}
	}
	return true
}

// FuzzApplyNOROffline checks that ApplyNOR's offline loop and the
// Channel inside a simulator produce bit-identical outputs, or both
// fail: on ties within and across inputs, unsorted traces, events that
// do not change their input, events after until, negative and
// non-finite times, and any pure delay.
func FuzzApplyNOROffline(f *testing.F) {
	// Ties (flags 1), unsorted traces (2), both, an input event at an
	// output event (8) and until at an output event (16).
	f.Add(int64(1), uint8(12), uint8(0), 18.0, 20.0, 0.0, 0.8)
	f.Add(int64(2), uint8(16), uint8(1), 18.0, 20.0, 0.0, 0.0)
	f.Add(int64(3), uint8(16), uint8(2), 10.0, 20.0, 0.0, 0.8)
	f.Add(int64(4), uint8(16), uint8(3), 0.0, 20.0, 0.0, 0.4)
	f.Add(int64(1), uint8(12), uint8(8), 18.0, 20.0, 0.0, 0.8)
	f.Add(int64(3), uint8(16), uint8(9), 0.0, 20.0, 0.0, 0.8)
	f.Add(int64(1), uint8(12), uint8(16), 18.0, 0.0, 0.0, 0.8)
	f.Add(int64(11), uint8(16), uint8(7), 5.0, math.Inf(1), 0.0, 0.8)
	f.Add(int64(13), uint8(24), uint8(1), 18.0, math.NaN(), 0.0, 0.8)
	// Acting on one of its events that do not change their input
	// moves output bits.
	f.Add(int64(161), uint8(23), uint8(1), 498.0, math.NaN(), -4952.0, 14220.0)
	// Events after until, and special times (flags 4): negative,
	// negative after until, NaN, +Inf after until and -Inf.
	f.Add(int64(5), uint8(20), uint8(0), 18.0, 1.0, 0.0, 0.8)
	f.Add(int64(6), uint8(16), uint8(4), 18.0, 20.0, -5.0, 0.8)
	f.Add(int64(7), uint8(16), uint8(4), 18.0, -1.0, -0.5, 0.8)
	f.Add(int64(8), uint8(16), uint8(4), 18.0, 20.0, math.NaN(), 0.8)
	f.Add(int64(9), uint8(16), uint8(4), 18.0, 1.0, math.Inf(1), 0.8)
	f.Add(int64(10), uint8(16), uint8(4), 18.0, 20.0, math.Inf(-1), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n, flags uint8, dminPs, untilNs, specialPs, vn0 float64) {
		p := TableI()
		if p.DMin = math.Mod(math.Abs(dminPs), 100) * 1e-12; math.IsNaN(p.DMin) {
			p.DMin = 0
		}
		if vn0 = math.Abs(vn0); !(vn0 <= p.Supply.VDD) {
			vn0 = 0
		}
		a, b := offlineStimulus(seed, int(n%32), flags, p.DMin, specialPs*1e-12)
		until := untilNs * 1e-9
		if flags&8 != 0 {
			a = inputAtCrossing(p, a, b, vn0)
		}
		if flags&16 != 0 { // until at an output event
			if out, err := applyNORSim(p, a, b, math.Inf(1), vn0); err == nil && len(out.Events) > 0 {
				until = out.Events[len(out.Events)-1].Time
			}
		}
		got, err := ApplyNOR(p, a, b, until, vn0)
		want, werr := applyNORSim(p, a, b, until, vn0)
		if (err != nil) != (werr != nil) {
			t.Fatalf("offline error %v, simulator error %v", err, werr)
		}
		if err == nil && !sameTraceBits(got, want) {
			t.Fatalf("offline %+v\nsimulator %+v", got, want)
		}
	})
}
