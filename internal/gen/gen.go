// Package gen generates the random input stimuli of the paper's accuracy
// evaluation (§VI): sequences of input transitions whose spacing follows
// a normal distribution, in two flavours:
//
//   - LOCAL:  every input gets its own independent gap sequence
//     (transitions on different inputs frequently fall close together,
//     stressing the MIS regime), and
//   - GLOBAL: a single global gap sequence is generated and each
//     transition is assigned to a random input (concurrent transitions
//     on different inputs become unlikely, stressing the SIS regime).
//
// All generation is deterministic given the seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hybriddelay/internal/trace"
	"hybriddelay/internal/waveform"
)

// Mode selects how transition times are distributed over the inputs.
type Mode int

const (
	// Local generates an independent gap sequence per input.
	Local Mode = iota
	// Global generates one gap sequence and assigns transitions to
	// random inputs.
	Global
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Local {
		return "LOCAL"
	}
	return "GLOBAL"
}

// ParseMode resolves a mode name ("local"/"LOCAL", "global"/"GLOBAL").
func ParseMode(s string) (Mode, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "LOCAL":
		return Local, nil
	case "GLOBAL":
		return Global, nil
	}
	return 0, fmt.Errorf("gen: unknown stimulus mode %q (want LOCAL or GLOBAL)", s)
}

// MarshalText implements encoding.TextMarshaler so sweep-grid JSON files
// can spell modes by name.
func (m Mode) MarshalText() ([]byte, error) {
	switch m {
	case Local, Global:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("gen: unknown mode %d", int(m))
}

// UnmarshalText implements encoding.TextUnmarshaler (case-insensitive).
func (m *Mode) UnmarshalText(b []byte) error {
	parsed, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Config describes one waveform configuration ("100/50 - LOCAL" etc.).
type Config struct {
	Mu          float64 // mean transition gap [s]
	Sigma       float64 // gap standard deviation [s]
	Mode        Mode
	Inputs      int     // number of inputs (2 for the NOR)
	Transitions int     // total number of transitions to generate
	Start       float64 // time of the first possible transition [s]
	MinGap      float64 // lower clamp for gaps [s]; default 1 ps
}

// Name renders the paper's labels, e.g. "100/50 - LOCAL".
func (c Config) Name() string {
	return fmt.Sprintf("%.0f/%.0f - %s", c.Mu/waveform.Pico, c.Sigma/waveform.Pico, c.Mode)
}

// Validate checks the configuration for use: counts must be positive,
// the gap distribution must be a positive finite mu with a non-negative
// finite sigma, the optional start time and gap clamp must be finite
// and non-negative, and the mode must be known. A config that fails
// validation would otherwise silently generate NaN transition times (a
// non-finite gap poisons every later event) or hang the generator, so
// every entry point validates before generating.
func (c Config) Validate() error {
	if c.Inputs < 1 {
		return fmt.Errorf("gen: need at least one input, have %d", c.Inputs)
	}
	if c.Transitions < 1 {
		return fmt.Errorf("gen: need at least one transition, have %d", c.Transitions)
	}
	if !(c.Mu > 0) || math.IsInf(c.Mu, 0) {
		return fmt.Errorf("gen: mean transition gap must be positive and finite, have mu=%g", c.Mu)
	}
	if c.Sigma < 0 || math.IsNaN(c.Sigma) || math.IsInf(c.Sigma, 0) {
		return fmt.Errorf("gen: gap standard deviation must be non-negative and finite, have sigma=%g", c.Sigma)
	}
	if c.Start < 0 || math.IsNaN(c.Start) || math.IsInf(c.Start, 0) {
		return fmt.Errorf("gen: start time must be non-negative and finite, have start=%g", c.Start)
	}
	if math.IsNaN(c.MinGap) || math.IsInf(c.MinGap, 0) {
		return fmt.Errorf("gen: gap clamp must be finite, have min_gap=%g", c.MinGap)
	}
	if c.Mode != Local && c.Mode != Global {
		return fmt.Errorf("gen: unknown mode %d", int(c.Mode))
	}
	return nil
}

// PaperConfigs returns the four waveform configurations of Fig. 7 for a
// 2-input gate: 100/50 LOCAL, 200/100 LOCAL, 2000/1000 GLOBAL and
// 5000/5 GLOBAL, with 500 transitions each except 250 for the last.
func PaperConfigs() []Config {
	mk := func(mu, sigma float64, mode Mode, n int) Config {
		return Config{
			Mu:          mu * waveform.Pico,
			Sigma:       sigma * waveform.Pico,
			Mode:        mode,
			Inputs:      2,
			Transitions: n,
			Start:       200 * waveform.Pico,
		}
	}
	return []Config{
		mk(100, 50, Local, 500),
		mk(200, 100, Local, 500),
		mk(2000, 1000, Global, 500),
		mk(5000, 5, Global, 250),
	}
}

// Traces generates the per-input digital traces for the configuration.
// All inputs start low.
func Traces(cfg Config, seed int64) ([]trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	minGap := cfg.MinGap
	if minGap <= 0 {
		minGap = waveform.Pico
	}
	rng := rand.New(rand.NewSource(seed))
	gap := func() float64 {
		g := cfg.Mu + float64(cfg.Sigma*rng.NormFloat64())
		if g < minGap {
			g = minGap
		}
		return g
	}
	events := make([][]trace.Event, cfg.Inputs)
	switch cfg.Mode {
	case Local:
		per := cfg.Transitions / cfg.Inputs
		extra := cfg.Transitions % cfg.Inputs
		for i := 0; i < cfg.Inputs; i++ {
			n := per
			if i < extra {
				n++
			}
			t := cfg.Start
			val := false
			for k := 0; k < n; k++ {
				t += gap()
				val = !val
				events[i] = append(events[i], trace.Event{Time: t, Value: val})
			}
		}
	case Global:
		t := cfg.Start
		vals := make([]bool, cfg.Inputs)
		for k := 0; k < cfg.Transitions; k++ {
			t += gap()
			i := rng.Intn(cfg.Inputs)
			vals[i] = !vals[i]
			events[i] = append(events[i], trace.Event{Time: t, Value: vals[i]})
		}
	default:
		return nil, fmt.Errorf("gen: unknown mode %d", int(cfg.Mode))
	}
	out := make([]trace.Trace, cfg.Inputs)
	for i := range events {
		out[i] = trace.New(false, events[i])
	}
	return out, nil
}

// Horizon returns a simulation end time that comfortably covers all
// generated activity plus settling.
func Horizon(traces []trace.Trace, settle float64) float64 {
	end := 0.0
	for _, tr := range traces {
		if n := tr.NumEvents(); n > 0 {
			if t := tr.Events[n-1].Time; t > end {
				end = t
			}
		}
	}
	return end + settle
}
