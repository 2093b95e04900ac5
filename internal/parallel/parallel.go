// Package parallel provides the two concurrency primitives the experiment
// harness is built on: ForEach, the one context-aware fan-out every
// parameter-point sweep and every set of one-cell rows runs through, whose
// tasks write order-stable slots so concurrent sweeps produce identical
// tables run after run; and Gate, which bounds how many of a row's
// simulators run at once inside the row executor.
//
// Simulations themselves are single-goroutine and seeded; parallelism
// lives at the sweep level (one task per parameter point, trial or row)
// and across a row's simulators, which keeps every number reproducible
// while using all cores.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// (workers ≤ 0 means GOMAXPROCS), with cooperative cancellation: once ctx
// is done no worker starts another task, and the tasks already running
// finish, so a SIGINT drains the sweep at task boundaries instead of
// abandoning running simulations mid-state. A task's error does not stop
// the others. The returned error joins the context error (if any) with
// every failing task's error in index order — partial sweeps are never
// silently reported as complete, errors.Is(err, context.Canceled)
// identifies a drained sweep, and no failure is shadowed by a
// lower-indexed one.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// The dispatcher's select picks at random when a send and
				// Done are both ready, so a canceled sweep can still hand
				// out a task; the worker refuses it here.
				if ctx.Err() != nil {
					continue
				}
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
