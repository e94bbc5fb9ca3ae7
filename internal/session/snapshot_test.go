package session

import (
	"encoding/json"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/la/sparse"
	"hybriddelay/internal/spice"
)

// TestSnapshotWireFormat pins the JSON of a Snapshot, the session part
// of the server's /metrics payload that scripts and the benchmark read:
// capitalized golden and params counters (params.DiskHits only when
// non-zero), capitalized solver counters and lowercase symbolic ones.
func TestSnapshotWireFormat(t *testing.T) {
	snap := Snapshot{
		Golden: eval.CacheStats{Hits: 1, Misses: 2, DiskHits: 3, Evictions: 4, Entries: 5},
		Params: eval.ParamStats{Hits: 6, Misses: 7, DiskHits: 8, Evictions: 9, Entries: 10},
		Solver: spice.SolverStats{Steps: 11, Rejected: 12, Iterations: 13, Factorizations: 14, Reused: 15,
			LinearReuses: 16, SparseFactorizations: 17, SparseFallbacks: 18, SymbolicHits: 19, SymbolicMisses: 20, Supernodes: 21},
		Symbolic: sparse.CacheStats{Hits: 22, Misses: 23, Evictions: 24, Entries: 25},
		Workers:  26,
	}
	const want = `{"golden":{"Hits":1,"Misses":2,"DiskHits":3,"Evictions":4,"Entries":5},` +
		`"params":{"Hits":6,"Misses":7,"DiskHits":8,"Evictions":9,"Entries":10},` +
		`"solver":{"Steps":11,"Rejected":12,"Iterations":13,"Factorizations":14,"Reused":15,` +
		`"LinearReuses":16,"SparseFactorizations":17,"SparseFallbacks":18,"SymbolicHits":19,"SymbolicMisses":20,"Supernodes":21},` +
		`"symbolic":{"hits":22,"misses":23,"evictions":24,"entries":25},` +
		`"workers":26}`
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("Snapshot JSON changed:\n got %s\nwant %s", got, want)
	}
	snap.Params.DiskHits = 0
	got, err = json.Marshal(snap.Params)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Hits":6,"Misses":7,"Evictions":9,"Entries":10}`; string(got) != want {
		t.Errorf("params without disk hits:\n got %s\nwant %s", got, want)
	}
}
