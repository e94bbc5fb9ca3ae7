package hybrid

import (
	"fmt"
	"math"

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
// kept as a piecewise trajectory (a list of segments), so threshold
// crossings that fall inside the deferred window survive later input
// events — an input event only changes the trajectory *after* its own
// effective switch time.
type Channel struct {
	P   Params
	sim *dtsim.Simulator
	a   *dtsim.Net
	b   *dtsim.Net
	out *dtsim.Net

	// segs is the piecewise future of the continuous state: segs[i] is
	// active on [segs[i].start, segs[i+1].start), the last segment
	// extends to infinity. Invariant: segs[0].start <= sim.Now() after
	// every event, and the list is sorted.
	segs []futureSeg

	pendingID  dtsim.EventID
	hasPending bool
	fireFn     func(t float64) // ch.fire, bound once rather than per schedule
}

type futureSeg struct {
	start float64
	mode  Mode
	sol   ode.Solution2 // local time: t - start
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
	mode := ModeOf(a.Value(), b.Value())
	state := p.steadyState(mode, vn0)
	sol, err := p.System(mode).Solve(state)
	if err != nil {
		return nil, err
	}
	ch.segs = []futureSeg{{start: sim.Now(), mode: mode, sol: sol}}
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

// StateAt evaluates the channel's continuous state at absolute time t
// (within the currently known future).
func (ch *Channel) StateAt(t float64) la.Vec2 {
	i := ch.segIndex(t)
	local := t - ch.segs[i].start
	if local < 0 {
		local = 0
	}
	return ch.segs[i].sol.At(local)
}

// ModeAt returns the scheduled mode at absolute time t.
func (ch *Channel) ModeAt(t float64) Mode {
	return ch.segs[ch.segIndex(t)].mode
}

func (ch *Channel) segIndex(t float64) int {
	i := len(ch.segs) - 1
	for i > 0 && ch.segs[i].start > t {
		i--
	}
	return i
}

// onInput handles an input transition at simulation time t. The pure
// delay DMin defers the mode switch to t + DMin; the trajectory before
// that instant is unaffected.
func (ch *Channel) onInput(t float64) {
	tEff := t + ch.P.DMin
	i := ch.segIndex(tEff)
	state := ch.segs[i].sol.At(tEff - ch.segs[i].start)
	mode := ModeOf(ch.a.Value(), ch.b.Value())
	sol, err := ch.P.System(mode).Solve(state)
	if err != nil {
		panic(fmt.Sprintf("hybrid: mode %v solve failed: %v", mode, err))
	}
	// Truncate any previously scheduled future after tEff and append the
	// new segment.
	ch.segs = append(ch.segs[:i+1], futureSeg{start: tEff, mode: mode, sol: sol})
	ch.prune(t)
	ch.reschedule()
}

// prune drops segments that ended before now, keeping the active one.
// It compacts in place, so the slice keeps its capacity and the appends
// in onInput stop reallocating.
func (ch *Channel) prune(now float64) {
	k := 0
	for k+1 < len(ch.segs) && ch.segs[k+1].start <= now {
		k++
	}
	if k > 0 {
		ch.segs = ch.segs[:copy(ch.segs, ch.segs[k:])]
	}
}

// reschedule recomputes the next output threshold crossing across the
// whole known future and (re)schedules the output event.
func (ch *Channel) reschedule() {
	if ch.hasPending {
		ch.sim.Cancel(ch.pendingID)
		ch.hasPending = false
	}
	now := ch.sim.Now()
	rising := !ch.out.Value()
	tCross, ok := ch.nextCrossing(ch.P.Supply.Vth, rising, now)
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

// nextCrossing finds the first V_th crossing in the given direction at
// absolute time >= after, scanning every future segment.
func (ch *Channel) nextCrossing(level float64, rising bool, after float64) (float64, bool) {
	for i := range ch.segs {
		seg := &ch.segs[i]
		var end float64
		if i+1 < len(ch.segs) {
			end = ch.segs[i+1].start
		} else {
			tau := seg.sol.SlowestTimeConstant()
			if math.IsInf(tau, 1) {
				tau = 1e-9
			}
			end = math.Max(seg.start, after) + 60*tau
		}
		if end <= after {
			continue
		}
		t0 := math.Max(seg.start, after)
		if t, ok := firstDirectionalCrossing(curve{sol2: &seg.sol, start: seg.start}, level, rising, t0, end); ok {
			return t, true
		}
	}
	return 0, false
}

// fire emits the pending output transition and looks for a follow-up
// crossing (a segment's two-exponential V_O can cross the threshold at
// most twice, and later segments may cross again).
func (ch *Channel) fire(t float64) {
	ch.hasPending = false
	ch.out.Set(t, !ch.out.Value())
	ch.prune(t)
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
