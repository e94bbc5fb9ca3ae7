package eval

import (
	"encoding/json"
	"math"

	"hybriddelay/internal/gen"
	"hybriddelay/internal/spice"
)

// Ratio is a normalized deviation-area ratio that survives JSON: an
// undefined ratio (zero inertial baseline, stored as NaN) encodes as
// null instead of breaking the encoder, and decodes back to NaN.
type Ratio float64

// IsDefined reports whether the ratio has a defined value.
func (r Ratio) IsDefined() bool { return !math.IsNaN(float64(r)) }

// MarshalJSON implements json.Marshaler.
func (r Ratio) MarshalJSON() ([]byte, error) {
	if !r.IsDefined() {
		return []byte("null"), nil
	}
	return json.Marshal(float64(r))
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Ratio) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = Ratio(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*r = Ratio(v)
	return nil
}

// convert converts the values of a ratio map between float64 and Ratio.
func convert[U, T ~float64](m map[string]T) map[string]U {
	if m == nil {
		return nil
	}
	out := make(map[string]U, len(m))
	//hybrid:nondet-ok each key converts its own value into a map; no order-dependent state
	for k, v := range m {
		out[k] = U(v)
	}
	return out
}

// convertNets is convert for a map of net -> model -> ratio.
func convertNets[U, T ~float64](m map[string]map[string]T) map[string]map[string]U {
	if m == nil {
		return nil
	}
	out := make(map[string]map[string]U, len(m))
	//hybrid:nondet-ok each net converts its own map into a map; no order-dependent state
	for net, v := range m {
		out[net] = convert[U](v)
	}
	return out
}

// runResultJSON is RunResult on the wire: the same fields in the same
// order, with the normalized ratios as Ratio, so a finite value keeps
// its bytes and an undefined one is null.
type runResultJSON struct {
	Config     gen.Config
	Seeds      []int64
	Area       map[string]float64
	Normalized map[string]Ratio
	GoldenEv   int
}

// MarshalJSON implements json.Marshaler.
func (r RunResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(runResultJSON{r.Config, r.Seeds, r.Area, convert[Ratio](r.Normalized), r.GoldenEv})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *RunResult) UnmarshalJSON(b []byte) error {
	var w runResultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = RunResult{w.Config, w.Seeds, w.Area, convert[float64](w.Normalized), w.GoldenEv}
	return nil
}

// circuitResultJSON is CircuitResult on the wire, as runResultJSON is
// RunResult.
type circuitResultJSON struct {
	Netlist         string
	Config          gen.Config
	Seeds           []int64
	Nets            []string
	Area            map[string]map[string]float64
	Normalized      map[string]map[string]Ratio
	TotalArea       map[string]float64
	TotalNormalized map[string]Ratio
	GoldenEv        map[string]int
	Solver          spice.SolverStats
}

// MarshalJSON implements json.Marshaler.
func (r CircuitResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(circuitResultJSON{r.Netlist, r.Config, r.Seeds, r.Nets, r.Area,
		convertNets[Ratio](r.Normalized), r.TotalArea, convert[Ratio](r.TotalNormalized), r.GoldenEv, r.Solver})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *CircuitResult) UnmarshalJSON(b []byte) error {
	var w circuitResultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = CircuitResult{w.Netlist, w.Config, w.Seeds, w.Nets, w.Area,
		convertNets[float64](w.Normalized), w.TotalArea, convert[float64](w.TotalNormalized), w.GoldenEv, w.Solver}
	return nil
}
