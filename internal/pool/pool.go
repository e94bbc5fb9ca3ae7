// Package pool provides the bounded work-claiming loop shared by the
// evaluation runner, the sweep engine and the session engine: a fixed
// set of indexed units fanned across a capped number of goroutines,
// with early stop on the first error or context cancellation and
// serialized completion callbacks.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a unit's panic turned into its error: the unit index,
// the value it panicked with and the stack at the panic.
type PanicError struct {
	Unit  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: unit %d panicked: %v", e.Unit, e.Value)
}

// call runs fn(i), turning a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Unit: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Run executes fn(i) for every i in [0, total) on min(workers, total)
// goroutines (at least one). Units are claimed in index order but may
// complete in any order; after the first unit returns an error no new
// units are claimed (units already claimed still finish). onDone, when
// non-nil, is invoked after each completed unit with the unit's index,
// the in-order completion count and the unit's error; calls are
// serialized. Run returns when every claimed unit has finished.
func Run(total, workers int, fn func(i int) error, onDone func(i, completed int, err error)) {
	RunContext(context.Background(), total, workers, fn, onDone)
}

// RunContext is Run with cancellation: once ctx is done, no new units
// are claimed (units already claimed still finish, so shared state
// stays consistent) and ctx.Err() is returned. A nil error means every
// unit was claimed; individual unit errors are reported through fn's
// return value and onDone, exactly as in Run. A unit that panics fails
// with a *PanicError like any unit error, and RunContext returns the
// first such error in place of ctx.Err(), so callers that keep unit
// errors in their own slots still see it.
func RunContext(ctx context.Context, total, workers int, fn func(i int) error, onDone func(i, completed int, err error)) error {
	if total <= 0 {
		return ctx.Err()
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		mu        sync.Mutex
		completed int
		panicked  error
		wg        sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= total || stop.Load() {
					return
				}
				err := call(fn, i)
				if err != nil {
					stop.Store(true)
				}
				mu.Lock()
				if _, ok := err.(*PanicError); ok && panicked == nil {
					panicked = err
				}
				if onDone != nil {
					completed++
					onDone(i, completed, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		return panicked
	}
	return ctx.Err()
}
