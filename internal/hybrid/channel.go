package hybrid

import (
	"fmt"

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
//
// Because the pure delay DMin defers each mode switch, the channel's
// continuous future is known DMin ahead of the simulation clock. It is
// kept as a Trajectory, so threshold crossings that fall inside the
// deferred window survive later input events — an input event cuts the
// trajectory only at its own effective switch time.
type Channel struct {
	P   Params
	sim *dtsim.Simulator
	a   *dtsim.Net
	b   *dtsim.Net
	out *dtsim.Net

	// future is the known future of the continuous state. Its first
	// segment starts at or before sim.Now() after every event.
	future Trajectory

	pendingID  dtsim.EventID
	hasPending bool
	fireFn     func(t float64) // ch.fire, bound once rather than per schedule

	// modes holds the four mode systems, prepared once: a mode's
	// eigen-decomposition and steady state do not depend on the state
	// it is entered with, and the segments' solutions refer to them.
	modes [4]ode.Prepared2
}

// NewChannel wires a hybrid NOR channel between two input nets and an
// output net. The initial continuous state is the current mode's steady
// state, with V_N = vn0 in mode (1,1) where the steady state leaves V_N
// free.
func NewChannel(sim *dtsim.Simulator, p Params, a, b, out *dtsim.Net, vn0 float64) (*Channel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{P: p, sim: sim, a: a, b: b, out: out}
	ch.fireFn = ch.fire
	for m := range ch.modes {
		var err error
		if ch.modes[m], err = p.System(Mode(m)).Prepare(); err != nil {
			return nil, fmt.Errorf("hybrid: mode %v: %w", Mode(m), err)
		}
	}
	mode := ModeOf(a.Value(), b.Value())
	state := p.steadyState(mode, vn0)
	// A few segments cover the DMin-deferred future; reserve them so
	// onInput's appends do not regrow the slice.
	ch.future.segs = append(make([]segment, 0, 4), segment{start: sim.Now(), mode: mode, sol2: ch.modes[mode].Solve(state)})
	out.SetInitial(state.Y > p.Supply.Vth)

	a.OnChange(func(t float64, _ bool) { ch.onInput(t) })
	b.OnChange(func(t float64, _ bool) { ch.onInput(t) })
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

// onInput handles an input transition at simulation time t. The pure
// delay DMin defers the mode switch to t + DMin; the trajectory before
// that instant is unaffected.
func (ch *Channel) onInput(t float64) {
	tEff := t + ch.P.DMin
	state := ch.future.cut(tEff)
	mode := ModeOf(ch.a.Value(), ch.b.Value())
	ch.future.segs = append(ch.future.segs, segment{start: tEff, mode: mode, sol2: ch.modes[mode].Solve(state)})
	ch.future.prune(t)
	ch.reschedule()
}

// reschedule recomputes the next output threshold crossing across the
// whole known future and (re)schedules the output event.
func (ch *Channel) reschedule() {
	if ch.hasPending {
		ch.sim.Cancel(ch.pendingID)
		ch.hasPending = false
	}
	rising := !ch.out.Value()
	tCross, ok := ch.future.FirstOutputCrossing(ch.P.Supply.Vth, rising, ch.sim.Now())
	if !ok {
		return
	}
	id, err := ch.sim.Schedule(tCross, ch.fireFn)
	if err != nil {
		panic(fmt.Sprintf("hybrid: schedule failed: %v", err))
	}
	ch.pendingID = id
	ch.hasPending = true
}

// fire emits the pending output transition and looks for a follow-up
// crossing (a segment's two-exponential V_O can cross the threshold at
// most twice, and later segments may cross again).
func (ch *Channel) fire(t float64) {
	ch.hasPending = false
	ch.out.Set(t, !ch.out.Value())
	ch.future.prune(t)
	ch.reschedule()
}

// ApplyNOR runs the channel offline over two input traces and returns
// the output trace, simulating until all activity has settled. This is
// the bulk-evaluation entry point used by the accuracy pipeline.
func ApplyNOR(p Params, a, b trace.Trace, until float64, vn0 float64) (trace.Trace, error) {
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
