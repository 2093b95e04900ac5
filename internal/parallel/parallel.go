// Package parallel provides the small deterministic fan-out primitives the
// experiment harness is built on: bounded worker pools whose results land
// in order-stable slots, so concurrent parameter sweeps produce identical
// tables run after run.
//
// Simulations themselves are single-goroutine and seeded; parallelism
// lives strictly at the sweep level (one task per parameter point), which
// keeps every number reproducible while using all cores.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (workers ≤ 0 means GOMAXPROCS). Every task runs to completion and the
// returned error aggregates every failing task's error (errors.Join, in
// index order) — partial sweeps are never silently reported as complete,
// and no failure is shadowed by a lower-indexed one.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done,
// workers finish the task they are on but pull no new ones, so a SIGINT
// drains the sweep at task boundaries instead of abandoning running
// simulations mid-state. The context error (if any) is joined with the
// task errors, so errors.Is(err, context.Canceled) identifies a drained
// sweep.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline fast path: one worker means the pool degenerates to a
		// sequential loop, so skip the goroutine + channel machinery (it
		// costs real time on per-chunk dispatch with GOMAXPROCS=1).
		// Semantics match the pooled path: per-item panic isolation via
		// safeCall, cancellation checked between items, ctx.Err joined in.
		errs := make([]error, n)
		done := ctx.Done()
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return errors.Join(append([]error{ctx.Err()}, errs...)...)
			default:
			}
			errs[i] = safeCall(fn, i)
		}
		return errors.Join(append([]error{ctx.Err()}, errs...)...)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = safeCall(fn, i)
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return errors.Join(append([]error{ctx.Err()}, errs...)...)
}

// Gate is a counting semaphore bounding how many goroutines run a hot
// section at once. The pipelined row executor holds one slot per chunk
// served, so a row with more simulators than Scale.Workers still runs at
// most Workers simulations concurrently while every simulator keeps its
// own cursor. A nil Gate admits everyone (unbounded).
type Gate struct {
	slots chan struct{}
}

// NewGate returns a Gate admitting width concurrent holders, or nil — no
// gate at all — when width ≤ 0.
func NewGate(width int) *Gate {
	if width <= 0 {
		return nil
	}
	return &Gate{slots: make(chan struct{}, width)}
}

// Enter claims a slot, blocking until one is free.
func (g *Gate) Enter() {
	if g != nil {
		g.slots <- struct{}{}
	}
}

// Leave releases a slot claimed by Enter.
func (g *Gate) Leave() {
	if g != nil {
		<-g.slots
	}
}

// safeCall invokes fn(i), converting a panic into an error so one bad
// parameter point cannot take down a whole sweep.
func safeCall(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map runs fn over [0, n) and collects the results in index order.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reduce runs fn over [0, n) and folds the results with combine, applied
// in strictly ascending index order (deterministic regardless of
// completion order).
func Reduce[T, A any](n, workers int, zero A, fn func(i int) (T, error), combine func(A, T) A) (A, error) {
	vals, err := Map(n, workers, fn)
	if err != nil {
		return zero, err
	}
	acc := zero
	for _, v := range vals {
		acc = combine(acc, v)
	}
	return acc, nil
}
