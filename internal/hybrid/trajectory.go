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

// Trajectory is the piecewise closed-form solution of a mode schedule.
// The state vector is carried continuously across mode switches, exactly
// as the hybrid automaton of the paper prescribes.
type Trajectory struct {
	segs []segment
}

type segment struct {
	start float64 // absolute start time
	end   float64 // absolute end time (+Inf for the last segment)
	mode  Mode
	sol   ode.Solution2 // local time: t - start
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
		end := math.Inf(1)
		if i+1 < len(phases) {
			end = phases[i+1].Start
		}
		sol, err := p.System(ph.Mode).Solve(state)
		if err != nil {
			return Trajectory{}, fmt.Errorf("hybrid: solving mode %v: %w", ph.Mode, err)
		}
		segs = append(segs, segment{start: ph.Start, end: end, mode: ph.Mode, sol: sol})
		if !math.IsInf(end, 1) {
			state = sol.At(end - ph.Start) // continuity across the switch
		}
	}
	return Trajectory{segs: segs}, nil
}

// Start returns the trajectory's first defined time.
func (tr *Trajectory) Start() float64 { return tr.segs[0].start }

// At evaluates the state (V_N, V_O) at absolute time t (clamped to the
// trajectory start).
func (tr *Trajectory) At(t float64) la.Vec2 {
	seg := &tr.segs[tr.segmentIndex(t)]
	local := t - seg.start
	if local < 0 {
		local = 0
	}
	return seg.sol.At(local)
}

// VO evaluates the output voltage at absolute time t.
func (tr *Trajectory) VO(t float64) float64 { return tr.At(t).Y }

// VN evaluates the internal node voltage at absolute time t.
func (tr *Trajectory) VN(t float64) float64 { return tr.At(t).X }

// ModeAt returns the active mode at time t.
func (tr *Trajectory) ModeAt(t float64) Mode {
	return tr.segs[tr.segmentIndex(t)].mode
}

func (tr *Trajectory) segmentIndex(t float64) int {
	i := sort.Search(len(tr.segs), func(i int) bool { return tr.segs[i].start > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// FirstOutputCrossing returns the earliest time t >= after at which V_O
// crosses level in the requested direction. ok is false if the trajectory
// never crosses.
func (tr *Trajectory) FirstOutputCrossing(level float64, rising bool, after float64) (float64, bool) {
	for i := range tr.segs {
		seg := &tr.segs[i]
		if seg.end <= after {
			continue
		}
		t0 := math.Max(seg.start, after)
		t1 := seg.end
		if math.IsInf(t1, 1) {
			// Size the window by the slowest pole; if the steady state
			// never reaches the level, only a finite excursion could cross.
			tau := seg.sol.SlowestTimeConstant()
			if math.IsInf(tau, 1) {
				tau = 1e-9 // all-neutral system: fixed 1 ns window
			}
			t1 = t0 + 60*tau
		}
		if t, ok := firstDirectionalCrossing(curve{sol2: &seg.sol, start: seg.start}, level, rising, t0, t1); ok {
			return t, true
		}
	}
	return 0, false
}

// Sample evaluates the trajectory on a uniform grid (used to render
// Fig. 4-style trajectory plots and for cross-validation against the
// analog simulator).
func (tr *Trajectory) Sample(t0, t1 float64, n int) (times []float64, vn []float64, vo []float64) {
	if n < 1 {
		n = 1
	}
	times = make([]float64, n+1)
	vn = make([]float64, n+1)
	vo = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(n)
		v := tr.At(t)
		times[i] = t
		vn[i] = v.X
		vo[i] = v.Y
	}
	return times, vn, vo
}
