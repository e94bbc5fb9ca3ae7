package session

// Circuit-level differential test: random valid netlists over the
// registered multi-input gates run as session circuit jobs under both
// solver modes and on one and on four workers. The two solver modes
// must agree on every golden event to within the sparse-solver accuracy
// gate, and the worker count must not change a single bit of the
// merged result.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/netlist"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
)

// differentialTol is the dense/sparse accuracy gate of
// solver_accuracy_test.go: the largest admissible deviation of one
// golden event between the two solver modes.
const differentialTol = 1e-12 // [s]

// randomNetlist draws a valid combinational netlist of 2–6 instances
// over nor2, nand2 and nor3 with 2–3 primary inputs. Each instance
// reads primary inputs and earlier outputs, so the netlist is acyclic;
// the first instances consume every primary input, so none is left
// unused.
func randomNetlist(rng *rand.Rand, name string) *netlist.Netlist {
	gates := []struct {
		name  string
		arity int
	}{{"nor2", 2}, {"nand2", 2}, {"nor3", 3}}
	nl := &netlist.Netlist{Name: name}
	for i := range 2 + rng.Intn(2) {
		nl.Inputs = append(nl.Inputs, fmt.Sprintf("i%d", i))
	}
	nets := append([]string(nil), nl.Inputs...)
	unused := len(nl.Inputs) // nets[:unused] still feed no instance
	for i := range 2 + rng.Intn(5) {
		g := gates[rng.Intn(len(gates))]
		inst := netlist.Instance{Name: fmt.Sprintf("g%d", i), Gate: g.name, Output: fmt.Sprintf("n%d", i)}
		for range g.arity {
			var net string
			if unused > 0 {
				unused--
				net = nets[unused]
			} else {
				net = nets[rng.Intn(len(nets))]
			}
			inst.Inputs = append(inst.Inputs, net)
		}
		nl.Instances = append(nl.Instances, inst)
		nets = append(nets, inst.Output)
	}
	return nl
}

func TestCircuitDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("analog circuit transients in -short mode")
	}
	rng := rand.New(rand.NewSource(29))
	seeds := []int64{1, 2}
	for k := range 5 {
		nl := randomNetlist(rng, fmt.Sprintf("rand%d", k))
		if err := nl.Validate(); err != nil {
			t.Fatalf("generated an invalid netlist %+v: %v", nl, err)
		}
		t.Run(nl.Name, func(t *testing.T) {
			cfg := gen.PaperConfigs()[0]
			cfg.Inputs = len(nl.Inputs)
			cfg.Transitions = 24
			goldens := map[spice.SolverMode][]map[string]trace.Trace{}
			for _, mode := range []spice.SolverMode{spice.DenseExact, spice.SparseFast} {
				p := fastParams()
				p.Solver = mode
				var ref string
				for _, workers := range []int{1, 4} {
					s := New(Options{Workers: workers})
					res, err := s.Evaluate(context.Background(), CircuitJob{Netlist: nl, Params: &p, Config: cfg, Seeds: seeds})
					if err != nil {
						t.Fatalf("%v, %d workers: %v", mode, workers, err)
					}
					got := *res.Circuit
					// The bench pool's solver traffic depends on how many
					// clones the workers built; the results must not.
					got.Solver = spice.SolverStats{}
					// A net without golden events has NaN ratios, which
					// reflect.DeepEqual never equates; %v renders every
					// float exactly and maps in key order.
					if text := fmt.Sprintf("%+v", got); ref == "" {
						ref = text
						goldens[mode] = cachedGoldens(t, s, nl, p, cfg, seeds)
					} else if text != ref {
						t.Errorf("%v: %d-worker result differs from the 1-worker one:\n got %s\nwant %s", mode, workers, text, ref)
					}
				}
			}
			for i, seed := range seeds {
				dense, sparse := goldens[spice.DenseExact][i], goldens[spice.SparseFast][i]
				for _, net := range nl.Recorded() {
					if dev := eventDeviation(t, fmt.Sprintf("seed %d net %s", seed, net), dense[net], sparse[net]); dev > differentialTol {
						t.Errorf("seed %d net %s: dense/sparse event deviation %.3g s exceeds %.0e s", seed, net, dev, differentialTol)
					}
				}
			}
		})
	}
}

// cachedGoldens reads the composed golden trace sets a circuit job left
// in the session's golden cache, one per seed.
func cachedGoldens(t *testing.T, s *Session, nl *netlist.Netlist, p nor.Params, cfg gen.Config, seeds []int64) []map[string]trace.Trace {
	t.Helper()
	out := make([]map[string]trace.Trace, len(seeds))
	for i, seed := range seeds {
		set, hit, err := s.GoldenCache().GetOrComputeSet(eval.CircuitKey(nl.ContentKey(), p, cfg, seed),
			func() (map[string]trace.Trace, error) { return nil, fmt.Errorf("golden of seed %d not cached", seed) })
		if err != nil || !hit {
			t.Fatalf("seed %d: cached golden: hit=%v err=%v", seed, hit, err)
		}
		out[i] = set
	}
	return out
}

// eventDeviation requires both traces to carry the same transition
// sequence and returns the largest per-event time deviation.
func eventDeviation(t *testing.T, label string, dense, sparse trace.Trace) float64 {
	t.Helper()
	if dense.Initial != sparse.Initial || len(dense.Events) != len(sparse.Events) {
		t.Fatalf("%s: dense trace (initial %v, %d events) and sparse trace (initial %v, %d events) differ in shape",
			label, dense.Initial, len(dense.Events), sparse.Initial, len(sparse.Events))
	}
	dev := 0.0
	for i, e := range dense.Events {
		if e.Value != sparse.Events[i].Value {
			t.Fatalf("%s: transition %d flips to %v dense, %v sparse", label, i, e.Value, sparse.Events[i].Value)
		}
		dev = math.Max(dev, math.Abs(e.Time-sparse.Events[i].Time))
	}
	return dev
}
