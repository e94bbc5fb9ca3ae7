package analysis

// DefaultKeyRules pins this repo's cache-identity invariants: every
// struct that contributes to golden/param/store/symbolic identity,
// against every builder that spells its key. TestSchemaDriftGuard in
// internal/store remains the runtime backstop (field-count pins); these
// rules prove the stronger property that each field is actually
// encoded.
func DefaultKeyRules(m *Module) []KeyRule {
	p := m.Path
	// Run-scoped TransientOptions fields: set per transient from state
	// that is already part of the cache identity (stimulus config +
	// seed + netlist content key) or pinned to solver defaults by the
	// bench layer — they carry no independent identity.
	transientIgnore := map[string]string{
		"TStart":            "simulation window; derived from the keyed stimulus",
		"TStop":             "simulation window; derived from the keyed stimulus",
		"MinStep":           "left at the solver default by the bench layer",
		"Breakpoints":       "derived from the keyed stimulus edges",
		"InitialConditions": "derived from the keyed netlist initial state",
		"Record":            "derived from the bench/netlist identity already in the key",
		"Newton":            "solver defaults; never varied by the bench layer",
	}
	return []KeyRule{
		// The persistent hdgs-v1 store spells every field explicitly.
		{Struct: p + "/internal/nor.Params", Builder: p + "/internal/store.keyString"},
		{Struct: p + "/internal/spice.TransientOptions", Builder: p + "/internal/store.keyString", Ignore: transientIgnore},
		// Its operating-point key spells every ParamKey field the same way.
		{Struct: p + "/internal/eval.ParamKey", Builder: p + "/internal/store.pointKeyString"},
		{Struct: p + "/internal/nor.Params", Builder: p + "/internal/store.pointKeyString"},
		{Struct: p + "/internal/spice.TransientOptions", Builder: p + "/internal/store.pointKeyString", Ignore: transientIgnore},
		// The in-process golden cache keys embed the whole Params value.
		{Struct: p + "/internal/nor.Params", Builder: p + "/internal/eval.CachedSource.Golden"},
		{Struct: p + "/internal/nor.Params", Builder: p + "/internal/eval.CircuitKey"},
		// The parametrization cache key embeds the whole Params value.
		{Struct: p + "/internal/nor.Params", Builder: p + "/internal/eval.ParamCache.OperatingPoint"},
		// The symbolic-factorization cache scope embeds Params via %+v.
		{Struct: p + "/internal/nor.Params", Builder: p + "/internal/nor.SymbolicScope"},
		// The symbolic cache key must cover every sparse option.
		{Struct: p + "/internal/la/sparse.Options", Builder: p + "/internal/la/sparse.cacheKey"},
	}
}

// DefaultLockScope lists the packages lockhold checks: the service
// layer, where a blocking call under a mutex wedges handlers and
// subscribers (the PR 9 SSE-hang class).
func DefaultLockScope(m *Module) []string {
	return []string{
		m.Path + "/internal/serve",
		m.Path + "/internal/session",
	}
}

// RunAll runs the four analyzers with the repo's default configuration
// and returns all findings in position order.
func RunAll(m *Module) []Diagnostic {
	var out []Diagnostic
	out = append(out, NoAlloc(m)...)
	out = append(out, DetMap(m)...)
	out = append(out, KeyComplete(m, DefaultKeyRules(m))...)
	out = append(out, LockHold(m, DefaultLockScope(m))...)
	sortDiagnostics(out)
	return out
}
