package dtsim

import (
	"math/rand"
	"reflect"
	"testing"

	"hybriddelay/internal/trace"
)

// TestDriveMatchesPerEventSchedule: a Drive stimulus keeps one queue
// entry per net, yet fires in exactly the order one Schedule call per
// transition would — including ties with other sources' transitions,
// with callbacks scheduled at the same instants, and with traces whose
// events are out of order.
func TestDriveMatchesPerEventSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		traces := make([]trace.Trace, 1+rng.Intn(3))
		for i := range traces {
			v := false
			for k := rng.Intn(6); k > 0; k-- {
				v = !v
				traces[i].Events = append(traces[i].Events, trace.Event{Time: float64(rng.Intn(4)), Value: v})
			}
		}
		ticks := make([]float64, rng.Intn(4))
		for i := range ticks {
			ticks[i] = float64(rng.Intn(4))
		}
		run := func(drive func(*Simulator, *Net, trace.Trace)) []string {
			sim := NewSimulator()
			var log []string
			for i, tr := range traces {
				n := NewNet(string(rune('a'+i)), false)
				n.OnChange(func(tm float64, v bool) {
					log = append(log, n.Name)
					// A listener schedules at the current instant.
					sim.Schedule(tm, func(float64) { log = append(log, n.Name+"'") })
				})
				drive(sim, n, tr)
			}
			for i, tm := range ticks {
				sim.Schedule(tm, func(float64) { log = append(log, string(rune('0'+i))) })
			}
			if err := sim.Run(10); err != nil {
				t.Fatal(err)
			}
			return log
		}
		got := run(func(sim *Simulator, n *Net, tr trace.Trace) {
			if err := Drive(sim, n, tr); err != nil {
				t.Fatal(err)
			}
		})
		want := run(func(sim *Simulator, n *Net, tr trace.Trace) {
			for _, e := range tr.Events {
				e := e
				sim.Schedule(e.Time, func(tm float64) { n.Set(tm, e.Value) })
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("traces %+v ticks %v:\n got %v\nwant %v", traces, ticks, got, want)
		}
	}
}

// TestStaleEventID: an ID whose event fired or was dropped names nothing
// once its slot is reused — it neither reports the new event pending
// nor cancels it.
func TestStaleEventID(t *testing.T) {
	sim := NewSimulator()
	old, _ := sim.Schedule(1, func(float64) {})
	dead, _ := sim.Schedule(1, func(float64) {})
	sim.Cancel(dead)
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	fired := 0
	a, _ := sim.Schedule(3, func(float64) { fired++ })
	b, _ := sim.Schedule(3, func(float64) { fired++ })
	if a == old || a == dead || b == old || b == dead {
		t.Fatalf("reused IDs: old %d dead %d new %d %d", old, dead, a, b)
	}
	if sim.Pending(old) || sim.Cancel(old) || sim.Cancel(dead) || sim.Cancel(0) {
		t.Error("stale or zero ID acted on a live event")
	}
	if err := sim.Run(4); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("%d of the 2 new events fired", fired)
	}
}
