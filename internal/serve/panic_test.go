package serve

import (
	"strings"
	"testing"
	"time"

	"hybriddelay/internal/gate"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/session"
	"hybriddelay/internal/sweep"
)

// panicGate is NOR2 under another name whose benches panic in Measure,
// after a pause long enough for a second job to wait on the first
// one's preparation.
type panicGate struct{ gate.Gate }

func (panicGate) Name() string { return "panic-test" }

func (g panicGate) NewBench(p nor.Params) (gate.Bench, error) {
	b, err := g.Gate.NewBench(p)
	return panicBench{b}, err
}

type panicBench struct{ gate.Bench }

func (panicBench) Measure() (gate.Measurement, error) {
	time.Sleep(50 * time.Millisecond)
	panic("characteristic measurement exploded")
}

func init() { gate.Register(panicGate{gate.NOR2}) }

// TestServeJobPanicIsolated: a job whose operating-point preparation
// panics ends failed instead of crashing the server, a second job
// waiting on the same preparation is released instead of hanging, and
// the server keeps serving other jobs.
func TestServeJobPanicIsolated(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	spec := func(g string) JobSpec {
		return JobSpec{Kind: session.KindGate, Gate: g, Stimuli: []sweep.Stimulus{testStimulus(8)}, Seeds: []int64{1}}
	}
	bad := []string{submit(t, hs.URL, spec("panic-test"), "a"), submit(t, hs.URL, spec("panic-test"), "b")}
	good := submit(t, hs.URL, spec("nor2"), "c")
	for _, id := range bad {
		st := waitTerminal(t, hs.URL, id, 60*time.Second)
		if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
			t.Errorf("panicking job %s: state %s, error %q; want failed with a panic error", id, st.State, st.Error)
		}
	}
	if st := waitTerminal(t, hs.URL, good, 120*time.Second); st.State != StateDone {
		t.Fatalf("nor2 job after the panics: state %s, error %q", st.State, st.Error)
	}
}
