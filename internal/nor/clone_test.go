package nor_test

import (
	"sync"
	"testing"

	"hybriddelay/internal/gate"
)

// TestBenchClone: benches built from one parameter set share no
// simulator state — the way the evaluation pool gives each worker its
// own bench. The same probe on concurrently running benches must agree
// exactly with a serial run (run under -race in CI).
func TestBenchClone(t *testing.T) {
	b := newBench(t, gate.NOR2, 8e-12)
	want := delay(t, b, b.Pair(0, true))

	const clones = 3
	got := make([]float64, clones)
	errs := make([]error, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		c, err := gate.NewAnalog(gate.NOR2, b.Params())
		if err != nil {
			t.Fatal(err)
		}
		if c.Circuit() == b.Circuit() {
			t.Fatal("bench shares the netlist with the original")
		}
		wg.Add(1)
		go func(i int, c *gate.Analog) {
			defer wg.Done()
			got[i], errs[i] = c.Delay(c.Pair(0, true))
		}(i, c)
	}
	wg.Wait()
	for i := 0; i < clones; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("bench %d delay %g != original %g", i, got[i], want)
		}
	}
}
