package obs

import "addrxlat/internal/workload"

// mirrorRing handles an event.KindRing event: it folds one row's chunk-ring
// backpressure counters into the "addrxlat.pipeline_*" expvars StartHTTP
// serves, so a long sweep watched over -http shows which side of the
// pipeline is the bottleneck — pipeline_waits_on_simulation counts the
// generator blocking on a full ring (simulation-bound, the healthy
// state), and pipeline_waits_on_generation counts simulators blocking on
// an unpublished chunk (generation-bound: speed up the generator). Counts
// accumulate across rows; peak_in_flight is the high-water ring occupancy
// of any row.
func mirrorRing(st workload.RingStats) {
	expInt("pipeline_chunks").Add(int64(st.Chunks))
	expInt("pipeline_waits_on_simulation").Add(int64(st.ProducerWaits))
	expInt("pipeline_waits_on_generation").Add(int64(st.ConsumerWaits))
	peak := expInt("pipeline_peak_in_flight")
	if int64(st.PeakInFlight) > peak.Value() {
		peak.Set(int64(st.PeakInFlight))
	}
}
