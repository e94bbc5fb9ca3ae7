package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryUnit(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		done := make([]atomic.Int64, 20)
		var callbacks atomic.Int64
		lastCompleted := 0
		Run(len(done), workers, func(i int) error {
			done[i].Add(1)
			return nil
		}, func(i, completed int, err error) {
			callbacks.Add(1)
			if completed != lastCompleted+1 {
				t.Errorf("workers=%d: completion count jumped %d -> %d", workers, lastCompleted, completed)
			}
			lastCompleted = completed
			if err != nil {
				t.Errorf("workers=%d: unexpected unit error %v", workers, err)
			}
		})
		for i := range done {
			if n := done[i].Load(); n != 1 {
				t.Errorf("workers=%d: unit %d ran %d times", workers, i, n)
			}
		}
		if callbacks.Load() != int64(len(done)) {
			t.Errorf("workers=%d: %d callbacks for %d units", workers, callbacks.Load(), len(done))
		}
	}
}

func TestRunStopsAfterError(t *testing.T) {
	var ran atomic.Int64
	sawErr := false
	Run(1000, 1, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return fmt.Errorf("unit 3 failed")
		}
		return nil
	}, func(i, completed int, err error) {
		if err != nil {
			sawErr = true
		}
	})
	if !sawErr {
		t.Error("error never surfaced through onDone")
	}
	// Serial: exactly units 0..3 run, nothing after the failure.
	if ran.Load() != 4 {
		t.Errorf("%d units ran after a serial failure at index 3, want 4", ran.Load())
	}
}

func TestRunEmptyAndNilCallback(t *testing.T) {
	Run(0, 4, func(i int) error { t.Fatal("fn called for empty total"); return nil }, nil)
	var ran atomic.Int64
	Run(5, 2, func(i int) error { ran.Add(1); return nil }, nil) // nil onDone is fine
	if ran.Load() != 5 {
		t.Errorf("%d units ran, want 5", ran.Load())
	}
}

func TestRunContextCancellation(t *testing.T) {
	// Pre-cancelled: no unit is ever claimed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := RunContext(ctx, 100, 4, func(i int) error { ran.Add(1); return nil }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d units ran under a pre-cancelled context, want 0", ran.Load())
	}

	// Cancelled mid-run: claimed units finish, no new units claimed
	// afterwards, and the context error is reported.
	ctx, cancel = context.WithCancel(context.Background())
	ran.Store(0)
	err = RunContext(ctx, 1000, 2, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation returned %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 || n < 5 {
		t.Errorf("%d units ran after mid-run cancellation, want a handful (claimed ones finish, rest skipped)", n)
	}

	// Background context: identical to Run, nil error.
	ran.Store(0)
	if err := RunContext(context.Background(), 7, 3, func(i int) error { ran.Add(1); return nil }, nil); err != nil {
		t.Fatalf("uncancelled RunContext returned %v", err)
	}
	if ran.Load() != 7 {
		t.Errorf("%d units ran, want 7", ran.Load())
	}
}

// TestRunContextPanic: a unit panic does not crash the process. It
// becomes the unit's *PanicError (index, value, stack), reaches onDone,
// stops further claiming like any unit error, and is returned.
func TestRunContextPanic(t *testing.T) {
	var ran atomic.Int64
	var seen error
	err := RunContext(context.Background(), 1000, 1, func(i int) error {
		ran.Add(1)
		if i == 3 {
			panic("unit exploded")
		}
		return nil
	}, func(i, completed int, err error) {
		if err != nil {
			seen = err
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Unit != 3 || pe.Value != "unit exploded" || len(pe.Stack) == 0 {
		t.Fatalf("RunContext returned %v (%+v), want unit 3's PanicError with its stack", err, pe)
	}
	if seen != err {
		t.Errorf("onDone saw %v, want the same PanicError", seen)
	}
	if ran.Load() != 4 {
		t.Errorf("%d units ran after a serial panic at index 3, want 4", ran.Load())
	}
}
