// Package event is the one stream a run reports itself through: the
// experiment harness's row executor and serve sweeps hand every
// observation to an Observer as one typed Event. It is a leaf beside mm,
// explain and serve so the harness can emit events without linking
// internal/obs, whose expvar and HTTP side would pull net/http into
// every binary that runs an experiment; obs.Recorder is the standard
// Observer.
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
	KindSample Kind = iota
	// KindPhase reports that a phase of Accesses requests finished in
	// Elapsed wall time. Alg is empty for a streamed row, whose simulators
	// all share the window.
	KindPhase
	// KindRing carries a finished row's chunk-ring backpressure counters.
	KindRing
	// KindServe carries a finished serving sweep's record; Row is the
	// table id.
	KindServe
)

// Event is one observation of a run, taken at a chunk boundary or at the
// end of a phase, row or sweep — never inside the access loop, so an
// observer cannot change a single counter. Row, Phase and Alg locate it;
// Kind selects the payload fields that are set.
type Event struct {
	Kind Kind
	Row  string
	// Phase is mm.PhaseWarmup or mm.PhaseMeasured for a streamed row,
	// "serve" for a serve cell.
	Phase string
	Alg   string

	Costs   mm.Costs          // KindSample
	Explain *explain.Counters // KindSample, nil unless attribution is armed
	Gauges  *explain.Gauges   // KindSample, nil unless the algorithm has gauges

	Accesses int           // KindPhase
	Elapsed  time.Duration // KindPhase

	Ring workload.RingStats // KindRing

	Serve *serve.SweepRecord // KindServe
}

// Observer receives a run's events. The experiment harness delivers them
// from its sweep workers, so implementations must be safe for concurrent
// use. obs.Recorder is the standard implementation.
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
	ex, ok := a.(mm.Explainer)
	if !ok || ex.Explain() == nil {
		return e
	}
	c := ex.Explain().Snapshot()
	e.Explain = &c
	if gg, ok := a.(mm.Gauger); ok {
		if g, has := gg.ExplainGauges(); has {
			e.Gauges = &g
		}
	}
	return e
}
