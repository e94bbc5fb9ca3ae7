package memo

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicReleasesWaiters: a computing caller that panics drops its
// entry, hands its waiters ErrPanicked instead of leaving them blocked,
// and panics on; the next lookup computes afresh.
func TestPanicReleasesWaiters(t *testing.T) {
	c := New[int](func(int) int64 { return 1 })
	ctx := context.Background()
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(ctx, 1, nil, func(context.Context) (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered

	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, hit, err := c.Do(ctx, 1, nil, func(context.Context) (int, error) {
				t.Error("waiter computed while the leader was in flight")
				return 0, nil
			})
			if !hit {
				t.Error("waiter's error not reported as another caller's")
			}
			errs <- err
		}()
	}
	// Waiters that have not reached the table yet when the leader fails
	// find no entry and would compute; let them all block first.
	awaitParked(t, waiters)
	close(release)

	if r := <-leaderPanic; r != "boom" {
		t.Fatalf("leader recovered %v, want the original panic value", r)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPanicked) {
				t.Errorf("waiter got %v, want ErrPanicked", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d waiters still blocked on the panicked entry", waiters-i)
		}
	}
	v, hit, err := c.Do(ctx, 1, nil, func(context.Context) (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("lookup after the panic: v=%d hit=%v err=%v, want a fresh compute", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 1 {
		t.Errorf("stats %+v, want 2 misses, 0 hits, 1 entry", st)
	}
}

// TestWaiterCancel: a waiter's own context ends its wait without
// disturbing the computing caller, whose result later callers still
// share.
func TestWaiterCancel(t *testing.T) {
	c := New[string](func(int) int64 { return 1 })
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(context.Background(), "k", nil, func(context.Context) (int, error) {
			close(entered)
			<-release
			return 42, nil
		})
		if v != 42 || err != nil {
			t.Errorf("leader: v=%d err=%v", v, err)
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", nil, func(context.Context) (int, error) { return 0, errors.New("computed") })
		waitErr <- err
	}()
	awaitParked(t, 1)
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	close(release)
	<-done
	v, hit, err := c.Do(context.Background(), "k", nil, func(context.Context) (int, error) { return 0, errors.New("recomputed") })
	if v != 42 || !hit || err != nil {
		t.Fatalf("after the leader finished: v=%d hit=%v err=%v", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss and 1 hit (a cancelled wait counts as neither)", st)
	}
}

// TestStress mixes lookups, refreshes and limit changes from many
// goroutines. Every lookup is a hit or a miss, every value belongs to
// its key, and the bound holds once the traffic stops. Run under -race.
func TestStress(t *testing.T) {
	c := New[int](func(v int) int64 { return int64(v%3 + 1) })
	const (
		workers = 16
		rounds  = 400
		keys    = 24
	)
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gens := map[int]uint64{}
			for r := 0; r < rounds; r++ {
				k := (w*7 + r*13) % keys
				compute := func(context.Context) (int, error) { return k * 10, nil }
				var v int
				var err error
				switch r % 5 {
				case 0:
					c.SetLimit(int64(r%4) * 8) // 0 (unbounded), 8, 16, 24
					continue
				case 1:
					v, gens[k], _, err = c.Refresh(context.Background(), k, gens[k], compute)
				default:
					v, _, err = c.Do(context.Background(), k, nil, compute)
				}
				lookups.Add(1)
				if err != nil || v != k*10 {
					t.Errorf("key %d: v=%d err=%v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != lookups.Load() {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, lookups.Load())
	}
	c.SetLimit(8)
	var total int64
	for _, v := range c.Values() {
		total += int64(v%3 + 1)
	}
	if total > 8 || len(c.Values()) != c.Stats().Entries {
		t.Errorf("after SetLimit(8): %d entries costing %d", c.Stats().Entries, total)
	}
}

// awaitParked waits until n goroutines are blocked in a lookup's wait
// for an in-flight entry (a select inside Cache.do). The computing
// caller blocks elsewhere, so it is not counted.
func awaitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "memo.(*Cache[...]).do(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lookups parked after 10s", parked, n)
		}
		runtime.Gosched()
	}
}
