package netlist

// Fuzz target for the netlist decoder, which reads inline netlists from
// the serve wire and grid files: no input may panic, and anything Parse
// accepts must pass Validate and describe itself (content key,
// recorded nets) without failing.

import (
	"bytes"
	"testing"
)

func FuzzParseNetlist(f *testing.F) {
	for _, s := range []string{
		`{"name":"n","inputs":["a","b"],"instances":[{"name":"g","gate":"nor2","inputs":["a","b"],"output":"o"}]}`,
		`{"name":"chain","inputs":["a","b"],"instances":[{"name":"g","gate":"nor2","inputs":["a","b"],"output":"y0"},{"name":"i","gate":"nor2","inputs":["y0","y0"],"output":"y1"}],"outputs":["y1"]}`,
		`{"name":"loop","inputs":["a"],"instances":[{"name":"g","gate":"nand2","inputs":["a","o"],"output":"o"}]}`,
		`{"name":"dup","inputs":["a","a"],"instances":[]}`,
		`{"name":"bad","inputs":["a","b"],"instances":[{"name":"g","gate":"nor3","inputs":["a","b"],"output":"a"}]}`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		nl, err := Parse(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("Parse accepted a netlist Validate rejects: %v", err)
		}
		_ = nl.ContentKey()
		if len(nl.Recorded()) == 0 {
			t.Fatal("accepted netlist records no nets")
		}
	})
}
