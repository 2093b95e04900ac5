package obs

import (
	"testing"

	"addrxlat/internal/event"
	"addrxlat/internal/serve"
)

// TestServeSweepMirrorsExpvars pins the serve-counter mirror: sweep
// records accumulate into the addrxlat.serve_* expvars and stay
// retrievable per table for the manifest.
func TestServeSweepMirrorsExpvars(t *testing.T) {
	rec := NewRecorder(0)
	base := expInt("serve_offered").Value()
	rec.Observe(event.Event{Kind: event.KindServe, Row: "sv-goodput", Serve: &serve.SweepRecord{
		Table: "sv-goodput",
		Points: []serve.Point{
			{Alg: "a", Load: 2, Counters: serve.Counters{Offered: 100, Admitted: 90, Completed: 70, Shed: 15, TimedOutQueued: 5, Retries: 3, Degraded: 8, GovernorTrips: 1}},
			{Alg: "b", Load: 2, Counters: serve.Counters{Offered: 50, Admitted: 50, Completed: 50}},
		},
	}})
	if got := expInt("serve_offered").Value() - base; got != 150 {
		t.Fatalf("serve_offered delta %d, want 150", got)
	}
	sr := rec.ServeRecord("sv-goodput")
	if sr == nil || len(sr.Points) != 2 {
		t.Fatalf("ServeRecord(sv-goodput) = %+v", sr)
	}
	if rec.ServeRecord("sv-latency") != nil {
		t.Fatal("ServeRecord returned a record for a table that never ran")
	}
}
