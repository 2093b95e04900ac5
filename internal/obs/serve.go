package obs

import "addrxlat/internal/serve"

// serveSweep handles an event.KindServe event: a finished serving sweep's
// record — offered-load grid, admission/governor configuration, and the
// per-(algorithm, load) point taxonomy. The record is kept for the run
// manifest (RunRecord.Serve) and its counters are folded into the
// "addrxlat.serve_*" expvars StartHTTP serves, so a long sweep watched
// over -http shows the serving layer's aggregate admission picture —
// offered vs completed vs shed — live.
func (r *Recorder) serveSweep(rec serve.SweepRecord) {
	var sum serve.Counters
	for _, pt := range rec.Points {
		c := pt.Counters
		sum.Offered += c.Offered
		sum.Admitted += c.Admitted
		sum.RejectedQueue += c.RejectedQueue
		sum.RejectedThrottle += c.RejectedThrottle
		sum.Completed += c.Completed
		sum.TimedOutQueued += c.TimedOutQueued
		sum.TimedOutServed += c.TimedOutServed
		sum.Shed += c.Shed
		sum.Retries += c.Retries
		sum.Degraded += c.Degraded
		sum.GovernorTrips += c.GovernorTrips
	}
	expInt("serve_offered").Add(int64(sum.Offered))
	expInt("serve_admitted").Add(int64(sum.Admitted))
	expInt("serve_rejected").Add(int64(sum.RejectedQueue + sum.RejectedThrottle))
	expInt("serve_completed").Add(int64(sum.Completed))
	expInt("serve_timed_out").Add(int64(sum.TimedOutQueued + sum.TimedOutServed))
	expInt("serve_shed").Add(int64(sum.Shed))
	expInt("serve_retries").Add(int64(sum.Retries))
	expInt("serve_degraded").Add(int64(sum.Degraded))
	expInt("serve_governor_trips").Add(int64(sum.GovernorTrips))

	// Windowed-telemetry aggregates (zero unless the sweep ran with the
	// metrics collector armed): closed windows, SLO-violating windows,
	// and retained slowest-request exemplars across all points.
	var wins, viols, exemplars int64
	for i := range rec.Points {
		if m := rec.Points[i].Metrics; m != nil {
			wins += int64(m.SLO.Windows)
			viols += int64(m.SLO.Violations)
			exemplars += int64(len(m.Exemplars))
		}
	}
	if wins > 0 || exemplars > 0 {
		expInt("serve_metrics_windows").Add(wins)
		expInt("serve_metrics_slo_violations").Add(viols)
		expInt("serve_metrics_exemplars").Add(exemplars)
	}

	r.mu.Lock()
	r.serves = append(r.serves, rec)
	r.mu.Unlock()
}

// ServeRecord returns the recorded sweep for the named table, nil if that
// sweep never ran (or ran under a different recorder).
func (r *Recorder) ServeRecord(table string) *serve.SweepRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.serves {
		if r.serves[i].Table == table {
			return &r.serves[i]
		}
	}
	return nil
}
