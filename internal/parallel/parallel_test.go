package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	var count int64
	hit := make([]int32, 1000)
	err := ForEach(1000, 8, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&hit[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("ran %d tasks, want 1000", count)
	}
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("no") }); err != nil {
		t.Fatal("n=0 should be a no-op")
	}
	if err := ForEach(-5, 4, func(int) error { return errors.New("no") }); err != nil {
		t.Fatal("negative n should be a no-op")
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var count int64
	if err := ForEach(100, 0, func(int) error {
		atomic.AddInt64(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d", count)
	}
}

func TestForEachAggregatesAllErrors(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := ForEach(100, 8, func(i int) error {
		switch i {
		case 70:
			return errB
		case 20:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both task errors joined", err)
	}
	// Index order: the lower-indexed failure is reported first.
	if idxA, idxB := strings.Index(err.Error(), "a"), strings.Index(err.Error(), "b"); idxA > idxB {
		t.Fatalf("errors out of index order: %v", err)
	}
}

func TestForEachMultiPanic(t *testing.T) {
	// Several tasks panic; every panic must survive into the aggregate,
	// not just the lowest-indexed one.
	err := ForEach(20, 4, func(i int) error {
		if i == 3 || i == 11 || i == 17 {
			panic(fmt.Sprintf("boom-%d", i))
		}
		return nil
	})
	if err == nil {
		t.Fatal("multi-panic sweep reported success")
	}
	for _, want := range []string{"task 3 panicked: boom-3", "task 11 panicked: boom-11", "task 17 panicked: boom-17"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("aggregate error %q missing %q", err, want)
		}
	}
}

func TestForEachCtxCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished int64
	err := ForEachCtx(ctx, 1000, 2, func(i int) error {
		atomic.AddInt64(&started, 1)
		if i == 0 {
			cancel()
		}
		atomic.AddInt64(&finished, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started != finished {
		t.Fatalf("started %d but finished %d: cancellation must drain, not abandon", started, finished)
	}
	if finished == 1000 {
		t.Fatal("cancellation dispatched every task; expected an early stop")
	}
}

func TestForEachCtxNilSafeBackground(t *testing.T) {
	var count int64
	if err := ForEachCtx(context.Background(), 50, 4, func(int) error {
		atomic.AddInt64(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("ran %d", count)
	}
}

func TestForEachAllTasksRunDespiteError(t *testing.T) {
	var count int64
	ForEach(50, 4, func(i int) error {
		atomic.AddInt64(&count, 1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if count != 50 {
		t.Fatalf("only %d tasks ran; errors must not cancel the sweep", count)
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	err := ForEach(10, 4, func(i int) error {
		if i == 3 {
			panic("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "parallel: task 3 panicked: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestMapOrder(t *testing.T) {
	got, err := Map(100, 7, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Map(10, 2, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceDeterministic(t *testing.T) {
	// String concatenation is order-sensitive; Reduce must fold in index
	// order no matter how tasks interleave.
	for trial := 0; trial < 20; trial++ {
		got, err := Reduce(26, 9, "",
			func(i int) (string, error) { return string(rune('a' + i)), nil },
			func(acc, s string) string { return acc + s })
		if err != nil {
			t.Fatal(err)
		}
		if got != "abcdefghijklmnopqrstuvwxyz" {
			t.Fatalf("trial %d: %q", trial, got)
		}
	}
}

func TestReduceError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Reduce(5, 2, 0,
		func(i int) (int, error) { return 0, boom },
		func(a, b int) int { return a + b })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, 0, func(int) error { return nil })
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	const width, workers = 2, 8
	gate := NewGate(width)
	var cur, peak int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				gate.Enter()
				n := atomic.AddInt64(&cur, 1)
				for {
					p := atomic.LoadInt64(&peak)
					if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
						break
					}
				}
				atomic.AddInt64(&cur, -1)
				gate.Leave()
			}
		}()
	}
	wg.Wait()
	if peak > width {
		t.Fatalf("observed %d concurrent holders, gate width %d", peak, width)
	}
}

func TestNilGateAdmitsEveryone(t *testing.T) {
	var gate *Gate
	gate.Enter()
	gate.Leave()
	if g := NewGate(0); g != nil {
		t.Fatal("width 0 should yield a nil (unbounded) gate")
	}
}
