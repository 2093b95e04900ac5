package workload

import (
	"sync"
	"testing"
	"time"
)

// ringDrain collects every chunk of one consumer's pass over the ring,
// asserting the segment/index labels advance the way the segment shape
// promises.
func ringDrain(t *testing.T, r *Ring, chunkSize int, segments []int) []uint64 {
	t.Helper()
	var got []uint64
	seg, idx := 0, 0
	for cur := 0; ; cur++ {
		c, ok := r.Get(cur)
		if !ok {
			break
		}
		if c.Seq != cur {
			t.Fatalf("chunk %d labeled Seq=%d", cur, c.Seq)
		}
		for seg < len(segments) && idx*chunkSize >= segments[seg] {
			seg, idx = seg+1, 0
		}
		if c.Segment != seg || c.Index != idx {
			t.Fatalf("chunk %d labeled (segment=%d, index=%d), want (%d, %d)",
				cur, c.Segment, c.Index, seg, idx)
		}
		got = append(got, c.Data...)
		r.Release(cur)
		idx++
	}
	return got
}

// TestRingMatchesTake pins the segmented multi-consumer stream against
// the materialized one: concatenating the ring's chunks must reproduce
// Take exactly, chunks must never straddle a segment boundary, and every
// consumer must observe the identical sequence.
func TestRingMatchesTake(t *testing.T) {
	for _, tc := range []struct {
		chunk    int
		segments []int
		depth    int
	}{
		{8, []int{64}, 2},
		{7, []int{64, 64}, 3},
		{16, []int{10, 70}, 2},
		{16, []int{0, 70}, 4},
		{16, []int{70, 0}, 4},
		{16, []int{0, 0}, 2},
		{1, []int{5, 3}, 1},
		{100, []int{64, 31}, 2},
	} {
		total := 0
		for _, n := range tc.segments {
			total += n
		}
		ref, err := NewBimodal(1<<8, 1<<12, 0.99, 42)
		if err != nil {
			t.Fatal(err)
		}
		want := Take(ref, total)

		gen, err := NewBimodal(1<<8, 1<<12, 0.99, 42)
		if err != nil {
			t.Fatal(err)
		}
		const consumers = 3
		r, err := NewRing(gen, tc.chunk, tc.segments, tc.depth, consumers)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		streams := make([][]uint64, consumers)
		for i := 0; i < consumers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				streams[i] = ringDrain(t, r, tc.chunk, tc.segments)
			}()
		}
		wg.Wait()
		for i, got := range streams {
			if len(got) != len(want) {
				t.Fatalf("chunk=%d segs=%v: consumer %d got %d requests, want %d",
					tc.chunk, tc.segments, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("chunk=%d segs=%v: consumer %d request %d = %d, want %d",
						tc.chunk, tc.segments, i, j, got[j], want[j])
				}
			}
		}
		st := r.Stats()
		wantChunks := 0
		for _, n := range tc.segments {
			wantChunks += (n + tc.chunk - 1) / tc.chunk
		}
		if st.Chunks != wantChunks || r.NumChunks() != wantChunks {
			t.Fatalf("chunk=%d segs=%v: published %d chunks (NumChunks %d), want %d",
				tc.chunk, tc.segments, st.Chunks, r.NumChunks(), wantChunks)
		}
		if st.PeakInFlight > tc.depth {
			t.Fatalf("chunk=%d segs=%v: peak in-flight %d exceeds depth %d",
				tc.chunk, tc.segments, st.PeakInFlight, tc.depth)
		}
	}
}

// TestRingRefcountHoldsBuffer is the refcount-release contract: a buffer
// is never recycled while a slow consumer still holds its chunk, even
// with a fast consumer pressing depth chunks ahead.
func TestRingRefcountHoldsBuffer(t *testing.T) {
	gen, err := NewUniform(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	const depth, chunk, total = 2, 8, 64
	r, err := NewRing(gen, chunk, []int{total}, depth, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Slow consumer: obtains chunk 0 and sits on it.
	c0, ok := r.Get(0)
	if !ok {
		t.Fatal("expected chunk 0")
	}
	snapshot := append([]uint64(nil), c0.Data...)

	// Fast consumer: drains as far as the ring lets it, then blocks on
	// Get(depth) — that chunk needs slot 0, still pinned by the slow
	// consumer's reference.
	unblocked := make(chan []uint64)
	go func() {
		for cur := 0; cur < depth; cur++ {
			if _, ok := r.Get(cur); !ok {
				t.Error("fast consumer starved inside the lookahead window")
				close(unblocked)
				return
			}
			r.Release(cur)
		}
		c, ok := r.Get(depth)
		if !ok {
			t.Error("fast consumer lost chunk past the lookahead window")
			close(unblocked)
			return
		}
		data := append([]uint64(nil), c.Data...)
		r.Release(depth)
		r.DetachFrom(depth + 1)
		unblocked <- data
	}()

	select {
	case <-unblocked:
		t.Fatal("chunk 0's buffer was recycled while a consumer held it")
	case <-time.After(50 * time.Millisecond):
	}
	for i, v := range c0.Data {
		if v != snapshot[i] {
			t.Fatalf("held chunk 0 mutated at %d: %d != %d", i, v, snapshot[i])
		}
	}

	// Releasing the held chunk lets the producer refill slot 0 and the
	// fast consumer proceed.
	r.Release(0)
	select {
	case data := <-unblocked:
		if data == nil {
			t.Fatal("fast consumer failed after release")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast consumer still blocked after the slow consumer released")
	}

	// The slow consumer finishes its own pass from chunk 1 and must see
	// the same stream a fresh generator yields.
	ref, err := NewUniform(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := Take(ref, total)
	got := snapshot
	for cur := 1; ; cur++ {
		c, ok := r.Get(cur)
		if !ok {
			break
		}
		got = append(got, c.Data...)
		r.Release(cur)
	}
	if len(got) != len(want) {
		t.Fatalf("slow consumer got %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("slow consumer request %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRingDetach verifies a consumer can leave mid-stream (poisoned cell,
// cancellation) without wedging the survivors or the producer.
func TestRingDetach(t *testing.T) {
	gen, err := NewUniform(1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	const chunk, total = 8, 128
	r, err := NewRing(gen, chunk, []int{total}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Consumer A takes two chunks then detaches while still holding its
	// cursor at 2 (chunks 0 and 1 released, nothing held).
	for cur := 0; cur < 2; cur++ {
		if _, ok := r.Get(cur); !ok {
			t.Fatalf("expected chunk %d", cur)
		}
		r.Release(cur)
	}
	r.DetachFrom(2)

	// Consumer B drains the full stream alone.
	ref, err := NewUniform(1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Take(ref, total)
	var got []uint64
	for cur := 0; ; cur++ {
		c, ok := r.Get(cur)
		if !ok {
			break
		}
		got = append(got, c.Data...)
		r.Release(cur)
	}
	if len(got) != len(want) {
		t.Fatalf("survivor got %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivor request %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRingDetachWhileHolding covers the harder detach shape: the leaver
// still holds an unreleased chunk, and an earlier chunk it already
// released is still pinned by the survivor.
func TestRingDetachWhileHolding(t *testing.T) {
	gen, err := NewUniform(1<<20, 9)
	if err != nil {
		t.Fatal(err)
	}
	const chunk, total = 8, 128
	r, err := NewRing(gen, chunk, []int{total}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Survivor holds chunk 0. Leaver releases 0, obtains 1, and detaches
	// without releasing it — DetachFrom(1) must drop that reference.
	if _, ok := r.Get(0); !ok {
		t.Fatal("survivor: expected chunk 0")
	}
	if _, ok := r.Get(0); !ok {
		t.Fatal("leaver: expected chunk 0")
	}
	r.Release(0)
	if _, ok := r.Get(1); !ok {
		t.Fatal("leaver: expected chunk 1")
	}
	r.DetachFrom(1)

	// Survivor continues from its held chunk 0 and drains everything.
	ref, err := NewUniform(1<<20, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := Take(ref, total)
	c0, _ := r.Get(0)
	got := append([]uint64(nil), c0.Data...)
	r.Release(0)
	for cur := 1; ; cur++ {
		c, ok := r.Get(cur)
		if !ok {
			break
		}
		got = append(got, c.Data...)
		r.Release(cur)
	}
	if len(got) != len(want) {
		t.Fatalf("survivor got %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("survivor request %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRingStop verifies abandoning the stream wakes blocked consumers and
// releases the producer.
func TestRingStop(t *testing.T) {
	gen, err := NewUniform(1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(gen, 16, []int{1 << 20}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(0); !ok {
		t.Fatal("expected a first chunk")
	}
	// A consumer blocked past the published frontier must be woken by Stop.
	done := make(chan bool)
	go func() {
		_, ok := r.Get(2)
		done <- ok
	}()
	r.Stop()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Get succeeded after Stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked consumer not woken by Stop")
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("Get succeeded after Stop")
	}
	r.Stop() // idempotent
}

// TestRingFillHook verifies the hook fires once per chunk, in publish
// order, with the chunk's coordinates, counters and timing.
func TestRingFillHook(t *testing.T) {
	gen, err := NewUniform(1<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	type fire struct{ seq, segment, index int }
	var mu sync.Mutex
	var fires []fire
	hook := func(p Publish) {
		mu.Lock()
		defer mu.Unlock()
		fires = append(fires, fire{p.Seq, p.Segment, p.Index})
		if p.Stats.Chunks != p.Seq+1 || p.Stats.InFlight < 1 || p.At.IsZero() || p.Fill < 0 || p.Wait < 0 {
			t.Errorf("publish %d reported %+v", p.Seq, p)
		}
	}
	r, err := NewRing(gen, 16, []int{40, 16}, 2, 1, WithFillHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	for cur := 0; ; cur++ {
		if _, ok := r.Get(cur); !ok {
			break
		}
		r.Release(cur)
	}
	// The hook runs after each publish, so the consumer can drain the
	// stream before the last call returns: Stop joins the producer.
	r.Stop()
	want := []fire{{0, 0, 0}, {1, 0, 1}, {2, 0, 2}, {3, 1, 0}}
	mu.Lock()
	defer mu.Unlock()
	if len(fires) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(fires), len(want))
	}
	for i, f := range fires {
		if f != want[i] {
			t.Fatalf("fire %d = %+v, want %+v", i, f, want[i])
		}
	}
}

// BenchmarkRingStream measures the steady-state cost of pushing chunks
// through the ring with one consumer; -benchmem pins the 0-alloc hot
// path (all buffers are preallocated at ring construction).
func BenchmarkRingStream(b *testing.B) {
	const (
		chunk   = 1 << 12
		nChunks = 64
	)
	b.SetBytes(8 * chunk * nChunks)
	b.ReportAllocs()
	gen, err := NewUniform(1<<20, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := NewRing(gen, chunk, []int{chunk * nChunks}, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for cur := 0; cur < nChunks; cur++ {
			c, ok := r.Get(cur)
			if !ok || len(c.Data) != chunk {
				b.Fatal("lost chunk")
			}
			r.Release(cur)
		}
	}
}
