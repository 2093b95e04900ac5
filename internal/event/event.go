// Package event is the one stream a run reports itself through: the
// experiment harness's row executor and serve sweeps hand every
// observation to an Observer as one typed Event, its modeled cost and
// its measured wall time together. It is a leaf beside mm, explain and
// serve so the harness can emit events without linking internal/obs,
// whose expvar and HTTP side would pull net/http into every binary that
// runs an experiment; obs.Recorder is the standard Observer, and
// obs.Trace draws the Perfetto trace and the straggler reports from the
// same events.
package event

import (
	"time"

	"addrxlat/internal/explain"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
	"addrxlat/internal/workload"
)

// Kind says which payload an Event carries.
type Kind uint8

// The event kinds.
const (
	// KindSample is one simulator's cumulative Costs at a chunk boundary,
	// with its Explain counters (and Gauges, if it has any) when cost
	// attribution is armed. Costs.Accesses counts from the phase start.
	// The row executor also sets Seq and the chunk's stage times:
	// RingWait (waiting for the chunk to be published), GateWait
	// (waiting on the Workers gate) and Batch (the AccessBatch call);
	// At is the end of the AccessBatch call.
	KindSample Kind = iota
	// KindPhase reports that a phase of Accesses requests finished in
	// Elapsed wall time. Alg is empty for a streamed row, whose simulators
	// all share the window; a serve cell is Phase PhaseServe, Alg its
	// "alg|load=L" label.
	KindPhase
	// KindRing ends a streamed row, on every exit path: its chunk-ring
	// backpressure counters, the row's wall time (Elapsed) and the time
	// the ring's producer spent blocked on a full ring (RingWait).
	KindRing
	// KindServe carries a finished serving sweep's record; Row is the
	// table id.
	KindServe
	// KindPublish is one chunk the ring's producer published: Seq, the
	// producer's time blocked on a full ring before it (RingWait), its
	// time generating the chunk (Batch) and the ring's counters after
	// the publish (Ring, InFlight included).
	KindPublish
	// KindMark is a point in time worth marking: Name is one of the Mark
	// names, Row and Alg locate it and Note carries its detail.
	KindMark
)

// PhaseServe is the Phase of a serve cell's KindPhase event.
const PhaseServe = "serve"

// The KindMark names.
const (
	MarkCancel     = "canceled"         // the row's context was canceled
	MarkFault      = "fault injected"   // Note: the fault point
	MarkQuarantine = "cell quarantined" // Note: the reason, when not a panic
	MarkCacheHit   = "resultcache hit"  // Note: the cache key
)

// Event is one observation of a run, taken at a chunk boundary or at the
// end of a phase, row or sweep — never inside the access loop, so an
// observer cannot change a single counter. Row, Phase and Alg locate it;
// Kind selects the payload fields that are set.
type Event struct {
	Kind Kind
	Row  string
	// Phase is mm.PhaseWarmup or mm.PhaseMeasured for a streamed row,
	// PhaseServe for a serve cell.
	Phase string
	Alg   string

	// At is the wall time the event was taken, stamped by the goroutine
	// that did the work (not by the observer when the event arrives).
	// The harness reads the clock only when an observer is attached; a
	// zero At marks an event without timing.
	At time.Time

	Costs   mm.Costs          // KindSample
	Explain *explain.Counters // KindSample, nil unless attribution is armed
	Gauges  *explain.Gauges   // KindSample, nil unless the algorithm has gauges

	Seq      int           // KindSample, KindPublish: the chunk's index in the stream
	RingWait time.Duration // KindSample, KindPublish, KindRing
	GateWait time.Duration // KindSample
	Batch    time.Duration // KindSample: AccessBatch; KindPublish: generation

	Accesses int           // KindPhase
	Elapsed  time.Duration // KindPhase, KindRing

	Ring workload.RingStats // KindRing, KindPublish

	Serve *serve.SweepRecord // KindServe

	Name, Note string // KindMark
}

// Observer receives a run's events. The experiment harness delivers them
// from its sweep workers and the ring's producer, so implementations
// must be safe for concurrent use. obs.Recorder is the standard
// implementation.
type Observer interface {
	Observe(Event)
}

// Sample snapshots simulator a at a chunk boundary as a KindSample event:
// its cumulative counters and, when attribution is wanted and a records
// it, its explain counters and structural gauges.
func Sample(row, phase, alg string, a mm.Algorithm, attribution bool) Event {
	e := Event{Kind: KindSample, Row: row, Phase: phase, Alg: alg, Costs: a.Costs()}
	if !attribution {
		return e
	}
	ex := a.Explain()
	if ex == nil {
		return e
	}
	c := ex.Snapshot()
	e.Explain = &c
	if g, has := a.ExplainGauges(); has {
		e.Gauges = &g
	}
	return e
}
