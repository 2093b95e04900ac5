package workload

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRingStopWithTracing aborts a ring with the publish hook armed
// mid-row — while the producer is blocked on a full ring — and asserts
// the abort contract the hook must not weaken: RingStats stay monotone
// across the abort, the producer goroutine exits, and the hook reported
// every chunk published before the abort, in order, with counters that
// never run ahead of the ring's own.
func TestRingStopWithTracing(t *testing.T) {
	before := runtime.NumGoroutine()

	gen, err := NewBimodal(1<<8, 1<<12, 0.99, 42)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var pubs []Publish
	hook := func(p Publish) {
		mu.Lock()
		pubs = append(pubs, p)
		mu.Unlock()
	}
	const chunk, depth = 8, 2
	r, err := NewRing(gen, chunk, []int{64, 64}, depth, 1, WithFillHook(hook))
	if err != nil {
		t.Fatal(err)
	}

	// Drain two chunks, then hold the third without releasing: with depth
	// 2 the producer fills the ring and blocks on the held slot.
	for seq := 0; seq < 2; seq++ {
		c, ok := r.Get(seq)
		if !ok {
			t.Fatalf("chunk %d: stream ended early", seq)
		}
		if len(c.Data) != chunk {
			t.Fatalf("chunk %d: %d requests, want %d", seq, len(c.Data), chunk)
		}
		r.Release(seq)
	}
	if _, ok := r.Get(2); !ok {
		t.Fatal("chunk 2: stream ended early")
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().ProducerWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked on the held chunk")
		}
		time.Sleep(time.Millisecond)
	}
	mid := r.Stats()

	// Abort mid-row. The held chunk is never released — Stop must still
	// unblock the producer.
	r.Stop()

	// The producer goroutine must exit.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("producer leaked: %d goroutines before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(time.Millisecond)
	}

	// Stats must be monotone across the abort: an abandoned stream reports
	// what happened, it never rolls counters back.
	final := r.Stats()
	if final.Chunks < mid.Chunks || final.ProducerWaits < mid.ProducerWaits ||
		final.ConsumerWaits < mid.ConsumerWaits || final.PeakInFlight < mid.PeakInFlight {
		t.Fatalf("stats regressed across Stop: mid %+v, final %+v", mid, final)
	}
	if final.Chunks >= r.NumChunks() {
		t.Fatalf("aborted stream claims %d of %d chunks published", final.Chunks, r.NumChunks())
	}
	if final.ProducerWaits == 0 || final.PeakInFlight != depth {
		t.Fatalf("expected a full blocked ring before the abort, got %+v", final)
	}

	// Stop joined the producer, so the hook is done: one report per
	// published chunk, in order, none ahead of the final counters. The
	// wait the abort cut short published nothing and is not reported.
	mu.Lock()
	defer mu.Unlock()
	if len(pubs) != final.Chunks {
		t.Fatalf("hook reported %d publishes, ring published %d", len(pubs), final.Chunks)
	}
	for i, p := range pubs {
		if p.Seq != i || p.Stats.Chunks != i+1 || p.Stats.ProducerWaits > final.ProducerWaits ||
			p.Stats.InFlight > depth || p.Wait < 0 || p.Fill < 0 {
			t.Fatalf("publish %d reported %+v (final %+v)", i, p, final)
		}
		if i > 0 && p.At.Before(pubs[i-1].At) {
			t.Fatalf("publish %d stamped before publish %d", i, i-1)
		}
	}
}
