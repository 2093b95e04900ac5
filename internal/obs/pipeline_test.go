package obs

import (
	"testing"

	"addrxlat/internal/event"
	"addrxlat/internal/workload"
)

// TestRowPipelineMirrorsExpvars pins the pipeline backpressure mirror:
// counters accumulate across rows, the in-flight gauge keeps the
// high-water mark.
func TestRowPipelineMirrorsExpvars(t *testing.T) {
	rec := NewRecorder(0)
	base := expInt("pipeline_chunks").Value()
	rec.Observe(event.Event{Kind: event.KindRing, Row: "r1", Ring: workload.RingStats{Chunks: 3, ProducerWaits: 2, ConsumerWaits: 1, PeakInFlight: 4}})
	rec.Observe(event.Event{Kind: event.KindRing, Row: "r2", Ring: workload.RingStats{Chunks: 5, ProducerWaits: 1, ConsumerWaits: 0, PeakInFlight: 2}})
	if got := expInt("pipeline_chunks").Value() - base; got != 8 {
		t.Errorf("pipeline_chunks advanced by %d, want 8", got)
	}
	if got := expInt("pipeline_peak_in_flight").Value(); got < 4 {
		t.Errorf("pipeline_peak_in_flight = %d, want ≥ 4 (high-water mark)", got)
	}
}
