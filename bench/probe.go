package main

// The host this benchmark was built on is a 2-CPU share of a busy
// machine. For seconds to minutes at a time, one CPU runs the solver's
// kind of code up to 2× slower than usual, while a plain multiply-add
// loop barely slows. The same fig7 job then took 3.2 s in one run and
// 6.8 s a minute later. No count of repetitions within a run averages
// that out.
//
// A probe measures the speed of the moment: a fixed amount of dense
// 8×8 LU work with partial pivoting, bench-local code that no change to
// the repository can speed up. It runs on the measured thread while the
// work runs. In a run of alternating probes and fig7 unit jobs,
// probe and job times correlated 0.87 (0.53 for a multiply-add loop,
// 0.12 for the probe run on the other CPU). Dividing by the probe
// brought the spread of 3-second stretches of work from 0.18 to 0.10.
//
// The end-to-end timings are therefore reported at the reference
// speed: each operation's host time ÷ its slowdown, from the probes
// taken while it ran. The host times themselves are printed and
// recorded next to them.

import (
	"math"
	"sort"
	"sync"
	"time"
)

const (
	probeReps   = 2500                   // LU solves per probe: about 2 ms
	probeRef    = 1.6e-3                 // the probe's usual time on the machine the benchmark was built on [s]
	probePeriod = 100 * time.Millisecond // between probes taken while work runs
)

var probeSink float64 // keeps the probe's work from being optimized away

// speedProbe runs one probe and returns its duration in seconds.
func speedProbe() float64 {
	start := time.Now()
	probeSink += luSolves(probeReps)
	return time.Since(start).Seconds()
}

// luSolves factors and solves reps small dense systems.
func luSolves(reps int) float64 {
	const n = 8
	var a [n][n]float64
	var b [n]float64
	s := 0.0
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] = 1 / (1 + float64((i*7+j*3+r)%11))
			}
			a[i][i] += 4 + math.Exp(-float64((r+i)%17)*0.1)
			b[i] = math.Exp(float64(i-r%5) * 0.01)
		}
		for k := 0; k < n; k++ {
			p := k
			for i := k + 1; i < n; i++ {
				if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
					p = i
				}
			}
			a[k], a[p] = a[p], a[k]
			b[k], b[p] = b[p], b[k]
			for i := k + 1; i < n; i++ {
				f := a[i][k] / a[k][k]
				for j := k; j < n; j++ {
					a[i][j] -= f * a[k][j]
				}
				b[i] -= f * b[k]
			}
		}
		for i := n - 1; i >= 0; i-- {
			for j := i + 1; j < n; j++ {
				b[i] -= a[i][j] * b[j]
			}
			b[i] /= a[i][i]
		}
		s += b[0]
	}
	return s
}

// prober collects probes and the time they took.
type prober struct {
	mu      sync.Mutex
	samples []float64
	at      []int64 // when each probe ended [Unix ns]
	spent   time.Duration
}

// take runs one probe.
func (p *prober) take() {
	d := speedProbe()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples = append(p.samples, d)
	p.at = append(p.at, time.Now().UnixNano())
	p.spent += time.Duration(d * float64(time.Second))
}

// every takes a probe every period on a goroutine of its own until the
// returned stop is called; stop waits for it and returns the time the
// probes took, to be taken off the clock of the work they interrupted.
// A measured child runs with GOMAXPROCS=1, so its probes run on the
// same thread as its work, which the Go scheduler preempts for them.
func (p *prober) every(period time.Duration) (stop func() time.Duration) {
	p.mu.Lock()
	spent := p.spent
	p.mu.Unlock()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				p.take()
			}
		}
	}()
	return func() time.Duration {
		close(done)
		<-exited
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.spent - spent
	}
}

// during returns the probes that ended within [from, to].
func (p *prober) during(from, to time.Time) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for i, at := range p.at {
		if at >= from.UnixNano() && at <= to.UnixNano() {
			out = append(out, p.samples[i])
		}
	}
	return out
}

// slowdown is how much slower than the reference the host ran while
// the probes were taken: their mean time over probeRef, with the
// slowest and fastest tenth left out (a probe the OS preempted, say),
// and 1 without probes. A job's time stretches with the time average
// of the slowdown while it runs, which evenly spaced probes sample.
func slowdown(probes []float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	s := append([]float64(nil), probes...)
	sort.Float64s(s)
	k := len(s) / 10
	sum := 0.0
	for _, p := range s[k : len(s)-k] {
		sum += p
	}
	return sum / float64(len(s)-2*k) / probeRef
}
