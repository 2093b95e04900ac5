package workload

import (
	"fmt"
	"sync"
	"time"
)

// DefaultChunk is the chunk size the experiment harness streams with:
// large enough to amortize per-chunk synchronization to noise, small
// enough that a chunk (512 KiB) stays cache- and memory-friendly.
const DefaultChunk = 1 << 16

// DefaultLookahead is the chunk-ring depth the experiment harness streams
// with: deep enough that the generator and a spread of simulator speeds
// stay decoupled (the fastest consumer can run depth-1 chunks ahead of
// the slowest), shallow enough that the resident window (depth × chunk)
// stays cache- and memory-friendly.
const DefaultLookahead = 4

// Chunk is one published chunk of a Ring: the request slice plus its
// position in the stream. Data is valid until the receiving consumer
// passes the chunk's Seq to Release (or DetachFrom).
type Chunk struct {
	Data    []uint64
	Seq     int // global chunk index across all segments
	Segment int // which segment (e.g. warmup=0, measured=1) the chunk belongs to
	Index   int // chunk index within its segment
}

// RingStats describes one finished (or abandoned) stream: how much was
// published and which side of the pipeline blocked. ProducerWaits counts
// the generator blocking on a slot still held by consumers — simulation
// is the bottleneck; ConsumerWaits counts consumers blocking on a chunk
// not yet published — generation is the bottleneck. Each count is one
// blocking episode, not one wakeup.
type RingStats struct {
	Chunks        int // chunks published
	ProducerWaits int // generator blocked on a full ring (simulation-bound)
	ConsumerWaits int // consumers blocked on an unpublished chunk (generation-bound)
	PeakInFlight  int // peak published-but-unreleased chunk count (≤ depth)
	InFlight      int // published-but-unreleased chunks when the stats were read
}

// Publish is one chunk as the producer published it, handed to the fill
// hook: the chunk's place in the stream, the ring's counters right after
// the publish, and the producer's time around it — At (the publish),
// Wait (blocked on a full ring before the chunk's slot drained, zero
// when it did not block) and Fill (generating the chunk and publishing
// it). The ring reads the clock only when a hook is installed.
type Publish struct {
	Seq, Segment, Index int
	At                  time.Time
	Wait, Fill          time.Duration
	Stats               RingStats
}

// Ring streams a bounded prefix of a Generator as fixed-size chunks
// through a depth-K ring of reusable buffers, produced by a dedicated
// goroutine running ahead of its consumers and released by reference
// count: a buffer is recycled only when every attached consumer has
// passed it. It is the row executor's one request path:
//
//   - Multiple consumers, each with its own cursor: consumer i calls
//     Get(seq) for seq = 0, 1, 2, … at its own pace; the ring bounds the
//     skew between the fastest and slowest consumer to depth chunks.
//   - Segments: the stream is a concatenation of per-segment request
//     counts (the harness's warmup and measured windows). Chunks never
//     straddle a segment boundary — each segment is chunked from zero,
//     exactly as slicing that window alone would — so consumers can
//     reset counters at the boundary without a global barrier.
//
// The chunk sequence concatenates to exactly the requests repeated
// Generator.Next calls would yield; chunking is invisible to consumers.
// Get/Release/DetachFrom are safe for concurrent use by distinct
// consumers; a single consumer must call them from one goroutine.
type Ring struct {
	chunkSize int
	depth     int
	nChunks   int
	fillHook  func(Publish)

	mu        sync.Mutex
	canRead   sync.Cond // consumers wait for a publish
	canWrite  sync.Cond // the producer waits for a slot to drain
	bufs      [][]uint64
	meta      []Chunk // per-slot descriptor of the chunk currently occupying it
	refs      []int   // consumers yet to release the slot's current chunk
	consumers int
	published int
	inFlight  int
	stopped   bool
	stats     RingStats

	producerDone chan struct{} // closed when the producer goroutine exits
}

// RingOption configures NewRing.
type RingOption func(*Ring)

// WithFillHook installs fn to run in the producer goroutine after each
// chunk is published, outside the ring's lock — the hook point for
// per-chunk fault injection and production-side telemetry. A nil fn
// installs nothing. It must not call back into the ring.
func WithFillHook(fn func(Publish)) RingOption {
	return func(r *Ring) { r.fillHook = fn }
}

// NewRing starts streaming the segments' requests from g in chunks of
// chunkSize through a ring depth buffers deep, for the given number of
// consumers. The final chunk of each segment is short when chunkSize does
// not divide the segment; a zero-length segment contributes no chunks but
// still occupies a Segment index. The producer goroutine exits after the
// last chunk is published, when Stop is called, or when every consumer
// has detached.
func NewRing(g Generator, chunkSize int, segments []int, depth, consumers int, opts ...RingOption) (*Ring, error) {
	if g == nil {
		return nil, fmt.Errorf("workload: nil generator")
	}
	if chunkSize <= 0 || depth < 1 || consumers < 1 {
		return nil, fmt.Errorf("workload: invalid ring shape chunk=%d depth=%d consumers=%d",
			chunkSize, depth, consumers)
	}
	nChunks := 0
	for _, total := range segments {
		if total < 0 {
			return nil, fmt.Errorf("workload: negative segment length %d", total)
		}
		nChunks += (total + chunkSize - 1) / chunkSize
	}
	r := &Ring{
		chunkSize: chunkSize,
		depth:     depth,
		nChunks:   nChunks,
		bufs:      make([][]uint64, depth),
		meta:      make([]Chunk, depth),
		refs:      make([]int, depth),
		consumers: consumers,
	}
	for _, opt := range opts {
		opt(r)
	}
	r.canRead.L = &r.mu
	r.canWrite.L = &r.mu
	for i := range r.bufs {
		r.bufs[i] = make([]uint64, chunkSize)
	}
	for i := range r.meta {
		r.meta[i].Seq = -1
	}
	r.producerDone = make(chan struct{})
	go func() {
		defer close(r.producerDone)
		r.produce(g, segments)
	}()
	return r, nil
}

// produce fills and publishes every chunk of every segment in order,
// reusing each slot once its previous occupant is fully released.
func (r *Ring) produce(g Generator, segments []int) {
	seq := 0
	for segIdx, total := range segments {
		for idx := 0; total > 0; idx++ {
			n := r.chunkSize
			if total < n {
				n = total
			}
			slot := seq % r.depth
			timed := r.fillHook != nil
			var waitStart, fillStart time.Time
			r.mu.Lock()
			if r.refs[slot] != 0 && !r.stopped && r.consumers > 0 {
				r.stats.ProducerWaits++
				if timed {
					waitStart = time.Now()
				}
				for r.refs[slot] != 0 && !r.stopped && r.consumers > 0 {
					r.canWrite.Wait()
				}
			}
			dead := r.stopped || r.consumers == 0
			r.mu.Unlock()
			if dead {
				return
			}
			if timed {
				fillStart = time.Now()
			}

			// The slot is invisible to consumers until published below, so
			// generation runs outside the lock.
			buf := r.bufs[slot][:n]
			Fill(g, buf)

			r.mu.Lock()
			r.meta[slot] = Chunk{Data: buf, Seq: seq, Segment: segIdx, Index: idx}
			r.refs[slot] = r.consumers
			r.published++
			r.inFlight++
			if r.inFlight > r.stats.PeakInFlight {
				r.stats.PeakInFlight = r.inFlight
			}
			r.stats.Chunks++
			st := r.stats
			st.InFlight = r.inFlight
			r.canRead.Broadcast()
			r.mu.Unlock()

			if timed {
				p := Publish{Seq: seq, Segment: segIdx, Index: idx, At: time.Now(), Stats: st}
				p.Fill = p.At.Sub(fillStart)
				if !waitStart.IsZero() {
					p.Wait = fillStart.Sub(waitStart)
				}
				r.fillHook(p)
			}

			seq++
			total -= n
		}
	}
}

// NumChunks reports how many chunks the full stream publishes.
func (r *Ring) NumChunks() int { return r.nChunks }

// Get returns chunk seq, blocking until it is published. ok is false when
// the stream holds no chunk seq (seq ≥ NumChunks) or the ring was
// stopped. Each consumer must call Get with its own cursor, in order:
// seq = 0, 1, 2, …, releasing each chunk before getting the next.
func (r *Ring) Get(seq int) (c Chunk, ok bool) {
	if seq >= r.nChunks {
		return Chunk{}, false
	}
	r.mu.Lock()
	if seq >= r.published && !r.stopped {
		r.stats.ConsumerWaits++
		for seq >= r.published && !r.stopped {
			r.canRead.Wait()
		}
	}
	if r.stopped || seq >= r.published {
		r.mu.Unlock()
		return Chunk{}, false
	}
	// The slot cannot have been refilled: that would need this consumer's
	// release, and it releases in cursor order.
	c = r.meta[seq%r.depth]
	r.mu.Unlock()
	return c, true
}

// Release hands back one consumer's reference on chunk seq. When the last
// reference drops, the slot becomes refillable and the producer wakes.
func (r *Ring) Release(seq int) {
	slot := seq % r.depth
	r.mu.Lock()
	r.refs[slot]--
	if r.refs[slot] == 0 {
		r.inFlight--
		r.canWrite.Signal()
	}
	r.mu.Unlock()
}

// DetachFrom removes one consumer from the ring: every published chunk
// from seq on that the consumer has not released is released on its
// behalf, and chunks published later are no longer counted against it.
// seq is the consumer's cursor — the first chunk it has not released
// (whether or not it obtained it). The consumer must not call Get or
// Release afterwards. A consumer that drains the full stream does not
// need to detach.
func (r *Ring) DetachFrom(seq int) {
	r.mu.Lock()
	r.consumers--
	for slot := range r.refs {
		if r.refs[slot] > 0 && r.meta[slot].Seq >= seq {
			r.refs[slot]--
			if r.refs[slot] == 0 {
				r.inFlight--
			}
		}
	}
	r.canWrite.Broadcast()
	r.mu.Unlock()
}

// Stop abandons the stream: the producer exits without publishing
// further chunks and every pending or future Get returns ok=false. Safe
// to call at any time, from any goroutine, more than once. Consumers
// holding chunks need not release them after Stop.
//
// Stop blocks until the producer goroutine has exited (at most one
// chunk-generation time away), so after Stop the fill hook has run for
// the last time: the row executor Stops its ring before it ends the row.
func (r *Ring) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		r.canRead.Broadcast()
		r.canWrite.Broadcast()
	}
	r.mu.Unlock()
	<-r.producerDone
}

// Stats reports the stream's pipeline counters. Call after the stream is
// drained (or stopped) for final numbers; mid-stream snapshots are valid
// but racy against further progress.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.InFlight = r.inFlight
	return st
}
