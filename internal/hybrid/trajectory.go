package hybrid

import (
	"fmt"
	"math"
	"sort"

	"hybriddelay/internal/la"
	"hybriddelay/internal/ode"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Phase is one leg of a mode schedule: the gate is in Mode from Start
// until the next phase's Start (the final phase extends to infinity).
type Phase struct {
	Start float64
	Mode  Mode
}

// Trajectory is the paper's hybrid model as one object: the piecewise
// closed-form solution of a mode schedule. Each segment solves the mode
// active from its start until the next segment's start (the last one
// extends to infinity), and the state is carried continuously across
// every mode switch, exactly as the hybrid automaton of the paper
// prescribes. A segment's body is the 2x2 closed form of the NOR's
// (V_N, V_O) with its Mode, or the n-node solution of a SwitchGate's
// input state. The delay queries, the SwitchGate appliers and the
// event-driven Channel all read output crossings off this one type.
type Trajectory struct {
	segs []segment
	out  int // output node of the n-node bodies
}

// segment is one leg of a Trajectory, solved in local time t - start.
type segment struct {
	start float64
	mode  Mode           // two-node body
	sol2  ode.Solution2  // two-node body
	solN  *ode.SolutionN // n-node body; nil for a two-node one
}

// NewTrajectory solves the schedule starting from state v0 = (V_N, V_O)
// at the first phase's start time. Phases must be sorted by Start.
func (p Params) NewTrajectory(v0 la.Vec2, phases []Phase) (*Trajectory, error) {
	tr, err := p.solveSchedule(v0, phases, make([]segment, 0, len(phases)))
	if err != nil {
		return nil, err
	}
	return &tr, nil
}

// solveSchedule is NewTrajectory appending the segments to segs. The
// delay queries pass a stack array, so a delay evaluation — the inner
// loop of parameter fitting — allocates only the prepared system each
// segment's solution refers to.
func (p Params) solveSchedule(v0 la.Vec2, phases []Phase, segs []segment) (Trajectory, error) {
	if err := p.Validate(); err != nil {
		return Trajectory{}, err
	}
	if len(phases) == 0 {
		return Trajectory{}, fmt.Errorf("hybrid: empty mode schedule")
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Start < phases[i-1].Start {
			return Trajectory{}, fmt.Errorf("hybrid: phases not sorted at index %d", i)
		}
	}
	state := v0
	for i, ph := range phases {
		sol, err := p.System(ph.Mode).Solve(state)
		if err != nil {
			return Trajectory{}, fmt.Errorf("hybrid: solving mode %v: %w", ph.Mode, err)
		}
		segs = append(segs, segment{start: ph.Start, mode: ph.Mode, sol2: sol})
		if i+1 < len(phases) {
			state = sol.At(phases[i+1].Start - ph.Start) // continuity across the switch
		}
	}
	return Trajectory{segs: segs}, nil
}

// seg returns the index of the segment active at t: the last one that
// starts at or before t, or the first one for t before the start.
func (tr *Trajectory) seg(t float64) int {
	return max(sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].start > t })-1, 0)
}

// local returns the segment active at t and t in its local time,
// clamped to the trajectory start.
func (tr *Trajectory) local(t float64) (*segment, float64) {
	seg := &tr.segs[tr.seg(t)]
	local := t - seg.start
	if local < 0 {
		local = 0
	}
	return seg, local
}

// At evaluates the node voltages at absolute time t (clamped to the
// trajectory start): (V_N, V_O) for a two-node body.
func (tr *Trajectory) At(t float64) []float64 {
	seg, local := tr.local(t)
	if seg.solN != nil {
		return seg.solN.At(local)
	}
	v := seg.sol2.At(local)
	return []float64{v.X, v.Y}
}

// FirstOutputCrossing returns the earliest time t >= after at which the
// output crosses level in the requested direction. The walk starts at
// the segment active at after; a segment's window ends where the next
// one starts, and the last one's after 60 of its slowest time constants
// (if the steady state never reaches the level, only a finite excursion
// could cross). ok is false if the trajectory never crosses.
func (tr *Trajectory) FirstOutputCrossing(level float64, rising bool, after float64) (float64, bool) {
	for i := tr.seg(after); i < len(tr.segs); i++ {
		c := tr.curve(i)
		t0 := math.Max(c.start, after)
		var t1 float64
		if i+1 < len(tr.segs) {
			t1 = tr.segs[i+1].start
		} else {
			tau := c.slowestTimeConstant()
			if math.IsInf(tau, 1) {
				tau = 1e-9 // all-neutral system: fixed 1 ns window
			}
			t1 = t0 + float64(60*tau)
		}
		if t, ok := firstDirectionalCrossing(c, level, rising, t0, t1); ok {
			return t, true
		}
	}
	return 0, false
}

// curve returns segment i's output as the crossing search sees it.
func (tr *Trajectory) curve(i int) curve {
	seg := &tr.segs[i]
	if seg.solN != nil {
		return curve{solN: seg.solN, node: tr.out, start: seg.start}
	}
	return curve{sol2: &seg.sol2, start: seg.start}
}

// cut drops the segments that start after t and returns the two-node
// state at t: the start state of a segment appended at t.
func (tr *Trajectory) cut(t float64) la.Vec2 {
	i := tr.seg(t)
	tr.segs = tr.segs[:i+1]
	return tr.segs[i].sol2.At(t - tr.segs[i].start)
}

// prune drops the segments that ended at or before now, keeping the
// active one. It compacts in place, so the slice keeps its capacity.
func (tr *Trajectory) prune(now float64) {
	if k := tr.seg(now); k > 0 {
		tr.segs = tr.segs[:copy(tr.segs, tr.segs[k:])]
	}
}

// Sample evaluates a two-node trajectory on a uniform grid (used to
// render Fig. 4-style trajectory plots and for cross-validation against
// the analog simulator).
func (tr *Trajectory) Sample(t0, t1 float64, n int) (times []float64, vn []float64, vo []float64) {
	if n < 1 {
		n = 1
	}
	times = make([]float64, n+1)
	vn = make([]float64, n+1)
	vo = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(n)
		seg, local := tr.local(t)
		v := seg.sol2.At(local)
		times[i] = t
		vn[i] = v.X
		vo[i] = v.Y
	}
	return times, vn, vo
}
