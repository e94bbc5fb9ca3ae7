package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hybriddelay/internal/eval"
)

// Ratio is a normalized deviation-area ratio that survives JSON (see
// eval.Ratio).
type Ratio = eval.Ratio

// ratioCSV renders a ratio for the CSV encoder ("NaN" when undefined).
func ratioCSV(r Ratio) string {
	if !r.IsDefined() {
		return "NaN"
	}
	return strconv.FormatFloat(float64(r), 'g', -1, 64)
}

// ScenarioResult is one report row: the scenario's grid coordinates and
// its aggregated accuracy, cache and timing statistics.
type ScenarioResult struct {
	Index       int     `json:"index"`
	Gate        string  `json:"gate"`
	VDDScale    float64 `json:"vdd_scale"`
	LoadScale   float64 `json:"load_scale"`
	Mode        string  `json:"mode"`
	MuPs        float64 `json:"mu_ps"`
	SigmaPs     float64 `json:"sigma_ps"`
	Transitions int     `json:"transitions"`
	Seeds       int     `json:"seeds"`

	// Normalized holds area / inertial area per model (the Fig. 7
	// bars); null/NaN when the inertial baseline is zero.
	Normalized map[string]Ratio `json:"normalized"`

	GoldenEvents int `json:"golden_events"`

	// WorstSeed is the repetition with the largest hybrid-model
	// deviation area (WorstSeedArea, in seconds).
	WorstSeed     int64   `json:"worst_seed"`
	WorstSeedArea float64 `json:"worst_seed_hm_area"`

	// Cache accounting for this scenario's golden lookups against the
	// sweep-wide shared cache.
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`

	// WallSeconds sums the scenario's unit evaluation times (CPU-side
	// wall time; cleared by ClearTimings for deterministic comparison).
	WallSeconds float64 `json:"wall_seconds"`
}

// Report is the outcome of one sweep: per-scenario rows in grid order
// plus grid-wide totals. A report deliberately carries no run metadata
// that depends on the worker count — after ClearTimings, two runs of
// the same spec (with equally warm caches) encode byte-identically no
// matter how they were scheduled.
type Report struct {
	Seeds      []int64          `json:"seeds"`
	ModelNames []string         `json:"model_names"`
	Scenarios  []ScenarioResult `json:"scenarios"`
	TotalUnits int              `json:"total_units"`
	// Cache sums the scenarios' golden lookups (CacheHits and
	// CacheMisses), so it counts this sweep's lookups only. DiskHits,
	// Evictions and Entries are always zero: they describe the shared
	// cache, whose snapshot is the session result's Stats.Golden.
	Cache       eval.CacheStats `json:"cache"`
	WallSeconds float64         `json:"wall_seconds"`
}

// ClearTimings zeroes every wall-time field, leaving only the
// deterministic content. Two sweeps of the same spec compare equal
// after ClearTimings regardless of worker count or machine load.
func (r *Report) ClearTimings() {
	r.WallSeconds = 0
	for i := range r.Scenarios {
		r.Scenarios[i].WallSeconds = 0
	}
}

// WriteJSON encodes the report as indented JSON. The encoding is
// deterministic: struct fields keep declaration order and map keys are
// sorted by encoding/json.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CSVHeader lists the CSV columns in emission order. Per-model
// normalized ratios expand into one norm_<model> column each, in the
// report's model order.
func (r *Report) CSVHeader() []string {
	cols := []string{
		"index", "gate", "vdd_scale", "load_scale", "mode",
		"mu_ps", "sigma_ps", "transitions", "seeds",
	}
	for _, name := range r.ModelNames {
		cols = append(cols, "norm_"+name)
	}
	return append(cols,
		"golden_events", "worst_seed", "worst_seed_hm_area_ps",
		"cache_hits", "cache_misses", "hit_rate", "wall_ms")
}

// WriteCSV encodes the per-scenario rows as CSV with the CSVHeader
// columns. Like WriteJSON it is deterministic for a fixed report.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(r.CSVHeader(), ",")); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, s := range r.Scenarios {
		cols := []string{
			strconv.Itoa(s.Index), s.Gate, g(s.VDDScale), g(s.LoadScale), s.Mode,
			g(s.MuPs), g(s.SigmaPs), strconv.Itoa(s.Transitions), strconv.Itoa(s.Seeds),
		}
		for _, name := range r.ModelNames {
			ratio, ok := s.Normalized[name]
			if !ok {
				ratio = Ratio(math.NaN())
			}
			cols = append(cols, ratioCSV(ratio))
		}
		cols = append(cols,
			strconv.Itoa(s.GoldenEvents),
			strconv.FormatInt(s.WorstSeed, 10),
			g(s.WorstSeedArea/1e-12),
			strconv.FormatInt(s.CacheHits, 10),
			strconv.FormatInt(s.CacheMisses, 10),
			g(s.HitRate),
			g(s.WallSeconds*1e3),
		)
		// Fields in this report never contain commas or quotes, so
		// plain joining stays valid CSV and byte-stable.
		if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ParseSpec decodes a sweep grid file (the `hybridlab sweep -grid`
// format): a JSON Spec with times in seconds and modes by name, e.g.
//
//	{
//	  "gates": ["nor2", "nand2"],
//	  "vdd_scale": [1.0, 0.9],
//	  "stimuli": [
//	    {"mode": "LOCAL",  "mu": 100e-12, "sigma": 50e-12, "transitions": 500},
//	    {"mode": "GLOBAL", "mu": 2000e-12, "sigma": 1000e-12, "transitions": 500}
//	  ],
//	  "seed_count": 5
//	}
func ParseSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("sweep: parsing grid spec: %w", err)
	}
	return spec, nil
}
