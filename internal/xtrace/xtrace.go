// Package xtrace is the zero-dependency span buffer behind the
// execution traces: per-timeline event buffers exported as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing) and checked
// by Validate. It keeps no package-level state and knows nothing of the
// simulators: internal/obs draws a run's timelines into a Tracer from
// the event stream (obs.Trace), the CLIs draw their sweep span, and the
// benchmark harness records its own spans.
//
// Design rules, in order:
//
//  1. Stamps come from the caller. A span or instant is recorded with
//     the tracer-relative nanoseconds it is given (Now, or Stamp of a
//     wall time an event carries), so recording never reads a
//     simulator's state.
//  2. One writer per buffer. A Thread appends without locks: its owner
//     (one goroutine, or a caller holding its own lock) serializes
//     writes; the Tracer locks only thread creation and export. Export
//     requires quiescence: call it after every writer has returned.
//  3. Bounded. Past maxThreads timelines, Thread hands out nil, a valid
//     Thread that ignores every call, and the export counts the drops.
package xtrace

import (
	"sync"
	"time"
)

// Span categories of the row executor's timelines and the CLIs' sweep
// span (drawn by internal/obs and the CLIs).
const (
	CatSweep      = "sweep"      // whole CLI invocation
	CatExperiment = "experiment" // one experiment of the sweep
	CatRow        = "row"        // one streaming row (its own thread)
	CatPhase      = "phase"      // warmup/measured window of one worker
	CatChunk      = "chunk"      // one chunk serviced by one simulator
	CatWait       = "wait"       // blocked time (see the Wait* names)
	CatWorker     = "worker"     // one (row, simulator) worker's lifetime
)

// Serve request-lifecycle categories. Unlike the sweep categories above,
// these spans carry VIRTUAL-time stamps (the serving layer's integer
// nanosecond clock), recorded onto dedicated threads — one thread per
// exemplar request, one per cell for the governor/window tracks — so
// virtual and wall timelines never mix on one thread. Validate enforces
// their schema: queued/attempt/backoff spans must nest inside a request
// span, and governor trip/clear instants must alternate starting with a
// trip.
const (
	CatServeRequest = "serve-request" // whole request lifetime: admission → terminal
	CatServeQueued  = "serve-queued"  // waiting in the admission queue
	CatServeAttempt = "serve-attempt" // one service attempt on the mm simulator
	CatServeBackoff = "serve-backoff" // retry backoff between attempts
)

// Wait-span names: where a worker's non-busy time went.
const (
	WaitGeneration = "wait generation" // blocked in Ring.Get / Source.Next
	WaitAdmission  = "wait admission"  // blocked on the Workers gate
	WaitConsumers  = "wait consumers"  // producer blocked on a full ring
)

// Serve-cell instant names (virtual-time stamps, see the serve
// categories). Trip/clear must alternate per thread, trip first; a
// trailing unmatched trip means the run ended degraded and is legal.
// Shed instants are emitted once per metrics window with a count
// argument, not per shed request — overload sheds thousands.
const (
	InstantGovTrip  = "governor trip"
	InstantGovClear = "governor clear"
	InstantShed     = "shed"
)

// Arg is one key/value annotation on an event. Exactly one of Str or Int
// is meaningful; IsStr selects.
type Arg struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// ArgStr annotates an event with a string value.
func ArgStr(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// ArgInt annotates an event with an integer value.
func ArgInt(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// Event is one recorded trace event. TS and Dur are nanoseconds since the
// tracer started; Ph is the Chrome trace-event phase ('X' complete span,
// 'i' instant, 'C' counter).
type Event struct {
	Name string
	Cat  string
	Ph   byte
	TS   int64
	Dur  int64
	Args []Arg
}

// Thread is one timeline of the trace: a lock-free append buffer,
// mapped to one tid of the exported trace. A nil Thread is valid and
// ignores every call, so call sites thread it unconditionally.
type Thread struct {
	tracer *Tracer
	tid    int
	name   string
	events []Event
}

// Tracer collects events from many threads. Create with New and export
// with WriteJSON after the traced work has quiesced.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	threads []*Thread
	dropped int
}

// maxThreads caps the trace's timeline count so a pathological sweep
// (thousands of cells) degrades by dropping threads, not by exhausting
// memory. Dropped threads are counted and reported in the export.
const maxThreads = 4096

// New returns an empty tracer whose clock starts now.
func New() *Tracer { return &Tracer{start: time.Now()} }

// Now returns the tracer-relative timestamp in nanoseconds (0 on a nil
// tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// Stamp converts a wall time to the tracer's clock: nanoseconds since
// the tracer started, clamped at zero.
func (t *Tracer) Stamp(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return max(int64(at.Sub(t.start)), 0)
}

// Thread registers a new timeline named name. Returns nil — safely
// ignorable — when the tracer is nil or the thread cap is reached.
func (t *Tracer) Thread(name string) *Thread {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.threads) >= maxThreads {
		t.dropped++
		return nil
	}
	th := &Thread{tracer: t, tid: len(t.threads), name: name}
	t.threads = append(t.threads, th)
	return th
}

// Span records a complete span on the thread, from start (a Tracer.Now
// stamp) to now.
func (th *Thread) Span(name, cat string, start int64, args ...Arg) {
	if th == nil {
		return
	}
	th.SpanAt(name, cat, start, th.tracer.Now(), args...)
}

// SpanAt records a complete span with explicit start and end stamps (both
// on the tracer's clock). end < start clamps to a zero-duration span.
func (th *Thread) SpanAt(name, cat string, start, end int64, args ...Arg) {
	if th == nil {
		return
	}
	if end < start {
		end = start
	}
	th.events = append(th.events, Event{Name: name, Cat: cat, Ph: 'X', TS: start, Dur: end - start, Args: args})
}

// InstantAt records an instant event with an explicit timestamp, clamped
// at zero.
func (th *Thread) InstantAt(name string, ts int64, args ...Arg) {
	if th == nil {
		return
	}
	th.events = append(th.events, Event{Name: name, Ph: 'i', TS: max(ts, 0), Args: args})
}

// CounterAt records a counter sample with an explicit timestamp, clamped
// at zero; each Arg becomes one series of the counter track named name.
func (th *Thread) CounterAt(name string, ts int64, args ...Arg) {
	if th == nil {
		return
	}
	th.events = append(th.events, Event{Name: name, Ph: 'C', TS: max(ts, 0), Args: args})
}

// Stats summarizes the tracer's content for logs and tests.
func (t *Tracer) Stats() (threads, events, dropped int) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, th := range t.threads {
		events += len(th.events)
	}
	return len(t.threads), events, t.dropped
}
