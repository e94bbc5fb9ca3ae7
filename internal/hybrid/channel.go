package hybrid

import (
	"fmt"
	"math"
	"sync"

	"hybriddelay/internal/dtsim"
	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
	"hybriddelay/internal/trace"
)

// Channel is the paper's 2-input hybrid NOR delay channel for digital
// timing simulation (§VI): a stateful channel that listens to both input
// nets, advances the continuous state (V_N, V_O) along the closed-form
// mode trajectories, switches modes at pure-delay-shifted input threshold
// crossings, and emits an output transition whenever the resulting V_O
// trajectory crosses V_th.
//
// Unlike single-input single-output involution channels, this channel
// sees which input switched and in which temporal relation to the other
// input — which is exactly what lets it reproduce MIS effects.
type Channel struct {
	P         Params
	sim       *dtsim.Simulator
	out       *dtsim.Net
	core      channelCore
	pendingID dtsim.EventID   // the scheduled output event, if any
	fireFn    func(t float64) // ch.fire, bound once rather than per schedule
}

// channelCore is the state of a hybrid NOR channel, driven by Channel
// from a simulator's events and by ApplyNOR from two traces.
//
// Because the pure delay DMin defers each mode switch, the channel's
// continuous future is known DMin ahead of the last event. It is kept
// as a Trajectory, so threshold crossings that fall inside the deferred
// window survive later input events — an input event cuts the
// trajectory only at its own effective switch time.
type channelCore struct {
	p Params
	// future is the known future of the continuous state. Its first
	// segment starts at or before the last event's time.
	future Trajectory
	// modes holds the four mode systems, prepared once: a mode's
	// eigen-decomposition and steady state do not depend on the state
	// it is entered with, and the segments' solutions refer to them.
	modes [4]ode.Prepared2
	out   bool // the digital output value
	memo  expMemo
}

// init starts the core at time start in the steady state of mode m,
// with V_N = vn0 in mode (1,1) where the steady state leaves V_N free.
func (c *channelCore) init(p Params, m Mode, start, vn0 float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.p = p
	c.memo = expMemo{} // a recycled core starts with an empty memo
	for k := range c.modes {
		var err error
		if c.modes[k], err = p.System(Mode(k)).Prepare(); err != nil {
			return fmt.Errorf("hybrid: mode %v: %w", Mode(k), err)
		}
	}
	state := p.steadyState(m, vn0)
	// A few segments cover the DMin-deferred future; reserve them so
	// input's appends do not regrow the slice.
	c.future = Trajectory{segs: append(make([]segment, 0, 4), segment{start: start, mode: m, sol2: c.modes[m].Solve(state)}), memo: &c.memo}
	c.out = state.Y > p.Supply.Vth
	return nil
}

// input handles an input event at time t that puts the gate in mode m.
// The pure delay DMin defers the mode switch to t + DMin: the future is
// cut there, and continues in mode m from its state at that instant.
func (c *channelCore) input(t float64, m Mode) {
	tEff := t + c.p.DMin
	i := c.future.seg(tEff)
	state := c.future.segs[i].sol2.At(tEff - c.future.segs[i].start)
	c.future.segs = append(c.future.segs[:i+1], segment{start: tEff, mode: m, sol2: c.modes[m].Solve(state)})
	c.future.prune(t)
}

// fire toggles the output at time t, a crossing next returned.
func (c *channelCore) fire(t float64) {
	c.out = !c.out
	c.future.prune(t)
}

// next returns the first output crossing at or after now.
func (c *channelCore) next(now float64) (float64, bool) {
	return c.future.FirstOutputCrossing(c.p.Supply.Vth, !c.out, now)
}

// NewChannel wires a hybrid NOR channel between two input nets and an
// output net. The initial continuous state is the current mode's steady
// state, with V_N = vn0 in mode (1,1) where the steady state leaves V_N
// free.
func NewChannel(sim *dtsim.Simulator, p Params, a, b, out *dtsim.Net, vn0 float64) (*Channel, error) {
	ch := &Channel{P: p, sim: sim, out: out}
	if err := ch.core.init(p, ModeOf(a.Value(), b.Value()), sim.Now(), vn0); err != nil {
		return nil, err
	}
	ch.fireFn = ch.fire
	out.SetInitial(ch.core.out)
	onInput := func(t float64, _ bool) {
		ch.core.input(t, ModeOf(a.Value(), b.Value()))
		ch.reschedule()
	}
	a.OnChange(onInput)
	b.OnChange(onInput)
	return ch, nil
}

// steadyState returns the settled (V_N, V_O) of a mode; vn0 fills the
// V_N degree of freedom in mode (1,1).
func (p Params) steadyState(m Mode, vn0 float64) la.Vec2 {
	switch m {
	case Mode00:
		return la.Vec2{X: p.Supply.VDD, Y: p.Supply.VDD}
	case Mode01:
		return la.Vec2{X: p.Supply.VDD, Y: 0}
	case Mode10:
		return la.Vec2{X: 0, Y: 0}
	default: // Mode11
		return la.Vec2{X: vn0, Y: 0}
	}
}

// reschedule replaces the pending output event (cancelling a fired or
// never scheduled one is a no-op) with one at the next crossing.
func (ch *Channel) reschedule() {
	ch.sim.Cancel(ch.pendingID)
	if t, ok := ch.core.next(ch.sim.Now()); ok {
		id, err := ch.sim.Schedule(t, ch.fireFn)
		if err != nil {
			panic(fmt.Sprintf("hybrid: schedule failed: %v", err))
		}
		ch.pendingID = id
	}
}

// fire emits the pending output transition and schedules the next.
func (ch *Channel) fire(t float64) {
	ch.core.fire(t)
	ch.out.Set(t, ch.core.out)
	ch.reschedule()
}

// corePool recycles ApplyNOR's channel cores: a core, its memo
// included, is too large to allocate afresh for every call.
var corePool = sync.Pool{New: func() any { return new(channelCore) }}

// ApplyNOR runs the channel offline over two input traces and returns
// the output trace, simulating until all activity has settled. This is
// the bulk-evaluation entry point used by the accuracy pipeline.
//
// It drives the Channel's core without a simulator, in the order in
// which a Channel in a dtsim.Simulator driven by the two traces sees
// the events, so both produce the same bits:
//   - input events in time order, a's before b's on a tie, and each
//     trace's in trace order (trace.Merge);
//   - at an equal time, input events before the pending output event;
//   - an input event that does not change its input's value does
//     nothing;
//   - no event after until is processed;
//   - a non-finite event time is an error, and so is a processed
//     negative one.
func ApplyNOR(p Params, a, b trace.Trace, until float64, vn0 float64) (trace.Trace, error) {
	c := corePool.Get().(*channelCore)
	defer corePool.Put(c)
	if err := c.init(p, ModeOf(a.Initial, b.Initial), 0, vn0); err != nil {
		return trace.Trace{}, err
	}
	out := trace.Trace{Initial: c.out}
	vals := [2]bool{a.Initial, b.Initial}
	var tc float64
	var pending bool
	var err error
	// fire emits the pending output events before t, and at t if at.
	fire := func(t float64, at bool) {
		for pending && (tc < t || at && !(tc > t)) {
			c.fire(tc)
			out.Events = append(out.Events, trace.Event{Time: tc, Value: c.out})
			tc, pending = c.next(tc)
		}
	}
	trace.Merge([]trace.Trace{a, b}, func(pin int, e trace.Event) {
		switch {
		case err != nil:
			return
		case math.IsNaN(e.Time) || math.IsInf(e.Time, 0):
			err = fmt.Errorf("hybrid: invalid event time %g", e.Time)
			return
		case e.Time > until:
			return
		case e.Time < 0:
			err = fmt.Errorf("hybrid: negative event time %g", e.Time)
			return
		}
		fire(e.Time, false)
		if vals[pin] != e.Value {
			vals[pin] = e.Value
			c.input(e.Time, ModeOf(vals[0], vals[1]))
			tc, pending = c.next(e.Time)
		}
	})
	if err != nil {
		return trace.Trace{}, err
	}
	fire(until, true)
	return out, nil
}
